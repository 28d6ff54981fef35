#include "lp/simplex.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace termilog {
namespace {

// Internal standard-form tableau:
//   minimize c . z   subject to  T z = rhs,  z >= 0,  rhs >= 0.
// Columns: [0, n_pos) original-or-split variables, then surplus, then
// artificial. We run phase 1 (min sum of artificials), drive artificials
// out, then phase 2 on the real objective. Bland's rule everywhere.
class Tableau {
 public:
  Tableau(int num_cols) : num_cols_(num_cols) {}

  void AddRow(std::vector<Rational> coeffs, Rational rhs) {
    TERMILOG_CHECK(static_cast<int>(coeffs.size()) == num_cols_);
    if (rhs.sign() < 0) {
      for (Rational& c : coeffs) c.Negate();
      rhs.Negate();
    }
    // Row-GCD normalization (docs/arithmetic.md): scaling an equality row
    // by a positive rational preserves the feasible set, the reduced-cost
    // signs, and every ratio-test comparison, so pivot sequences and
    // results are unchanged while entering coefficient magnitudes shrink
    // to coprime integers — keeping pivot arithmetic on the fast path.
    NormalizeRowGcd(&coeffs, &rhs);
    rows_.push_back(std::move(coeffs));
    rhs_.push_back(std::move(rhs));
  }

  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_cols() const { return num_cols_; }

  // Appends one column per row (identity block) and sets the basis to it.
  // Returns the index of the first appended column.
  int AppendIdentityBasis() {
    int first = num_cols_;
    num_cols_ += num_rows();
    for (int r = 0; r < num_rows(); ++r) {
      rows_[r].resize(num_cols_, Rational());
      rows_[r][first + r] = Rational(1);
    }
    basis_.resize(num_rows());
    for (int r = 0; r < num_rows(); ++r) basis_[r] = first + r;
    return first;
  }

  // Minimizes `objective` (dense over current columns) starting from the
  // current basis. Returns kOptimal or kUnbounded (or kPivotLimit).
  LpStatus Optimize(const std::vector<Rational>& objective, int* pivots,
                    const ResourceGovernor* governor) {
    // Maintain the reduced-cost row incrementally: start from the plain
    // objective and eliminate basic columns.
    std::vector<Rational> cost = objective;
    cost.resize(num_cols_, Rational());
    Rational cost_rhs;  // negative of current objective value offset
    for (int r = 0; r < num_rows(); ++r) EliminateBasic(r, &cost, &cost_rhs);

    while (true) {
      if (++*pivots > SimplexSolver::kMaxPivots) return LpStatus::kPivotLimit;
      if (TERMILOG_FAILPOINT_HIT("lp.pivot")) return LpStatus::kPivotLimit;
      if (governor != nullptr && !governor->Charge("lp.pivot").ok()) {
        return LpStatus::kPivotLimit;
      }
      // Bland: entering column = smallest index with negative reduced cost.
      int entering = -1;
      for (int c = 0; c < num_cols_; ++c) {
        if (cost[c].sign() < 0) {
          entering = c;
          break;
        }
      }
      if (entering < 0) {
        objective_value_ = -cost_rhs;
        return LpStatus::kOptimal;
      }
      // Ratio test; Bland tie-break on basis variable index.
      int leaving = -1;
      Rational best_ratio;
      for (int r = 0; r < num_rows(); ++r) {
        if (rows_[r][entering].sign() <= 0) continue;
        Rational ratio = rhs_[r] / rows_[r][entering];
        if (leaving < 0 || ratio < best_ratio ||
            (ratio == best_ratio && basis_[r] < basis_[leaving])) {
          leaving = r;
          best_ratio = ratio;
        }
      }
      if (leaving < 0) return LpStatus::kUnbounded;
      Pivot(leaving, entering);
      EliminateBasic(leaving, &cost, &cost_rhs);
    }
  }

  // Gauss-Jordan pivot making column `col` basic in row `row`.
  void Pivot(int row, int col) {
    Rational inv = rows_[row][col].Inverse();
    for (Rational& v : rows_[row]) {
      if (!v.is_zero()) v *= inv;
    }
    rhs_[row] *= inv;
    for (int r = 0; r < num_rows(); ++r) {
      if (r == row) continue;
      Rational factor = rows_[r][col];
      if (factor.is_zero()) continue;
      for (int c = 0; c < num_cols_; ++c) {
        if (!rows_[row][c].is_zero()) {
          rows_[r][c] -= factor * rows_[row][c];
        }
      }
      rhs_[r] -= factor * rhs_[row];
    }
    basis_[row] = col;
  }

  // After phase 1 at optimum zero: pivot artificial variables out of the
  // basis, deleting redundant rows that contain no real column.
  void RemoveArtificials(int first_artificial) {
    for (int r = 0; r < num_rows();) {
      if (basis_[r] < first_artificial) {
        ++r;
        continue;
      }
      int col = -1;
      for (int c = 0; c < first_artificial; ++c) {
        if (!rows_[r][c].is_zero()) {
          col = c;
          break;
        }
      }
      if (col >= 0) {
        Pivot(r, col);
        ++r;
      } else {
        // Redundant row (all real coefficients zero; rhs must be zero at
        // phase-1 optimum). Drop it.
        TERMILOG_CHECK(rhs_[r].is_zero());
        rows_.erase(rows_.begin() + r);
        rhs_.erase(rhs_.begin() + r);
        basis_.erase(basis_.begin() + r);
      }
    }
    // Physically truncate the artificial columns.
    for (auto& row : rows_) row.resize(first_artificial);
    num_cols_ = first_artificial;
  }

  // Reads the current basic solution into a dense column-space vector.
  std::vector<Rational> Solution() const {
    std::vector<Rational> out(num_cols_);
    for (int r = 0; r < num_rows(); ++r) {
      if (basis_[r] < num_cols_) out[basis_[r]] = rhs_[r];
    }
    return out;
  }

  const Rational& objective_value() const { return objective_value_; }

 private:
  // Subtracts multiples of basic row `r` from the cost row so the basic
  // column's reduced cost becomes zero.
  void EliminateBasic(int r, std::vector<Rational>* cost,
                      Rational* cost_rhs) const {
    int col = basis_[r];
    Rational factor = (*cost)[col];
    if (factor.is_zero()) return;
    for (int c = 0; c < num_cols_; ++c) {
      if (!rows_[r][c].is_zero()) (*cost)[c] -= factor * rows_[r][c];
    }
    *cost_rhs -= factor * rhs_[r];
  }

  int num_cols_;
  std::vector<std::vector<Rational>> rows_;
  std::vector<Rational> rhs_;
  std::vector<int> basis_;
  Rational objective_value_;
};

#ifdef TERMILOG_OBS_ENABLED
thread_local const char* current_lp_caller = "simplex.solves.analyzer";
#endif

LpResult SolveMin(const ConstraintSystem& system,
                  const std::vector<Rational>& objective,
                  const std::vector<bool>& is_free,
                  const ResourceGovernor* governor) {
  TERMILOG_TRACE("simplex.solve", "lp");
  const int n = system.num_vars();
  TERMILOG_CHECK(objective.empty() ||
                 static_cast<int>(objective.size()) == n);
  TERMILOG_CHECK(is_free.empty() || static_cast<int>(is_free.size()) == n);

  // Column layout: for each original variable one column, plus an extra
  // negative-part column for free variables; then one surplus column per
  // kGe row.
  std::vector<int> neg_col(n, -1);
  int next_col = n;
  for (int i = 0; i < n; ++i) {
    if (!is_free.empty() && is_free[i]) neg_col[i] = next_col++;
  }
  int first_surplus = next_col;
  int num_ge = 0;
  for (const Constraint& row : system.rows()) {
    if (row.rel == Relation::kGe) ++num_ge;
  }
  int total_cols = first_surplus + num_ge;

  Tableau tableau(total_cols);
  int surplus_index = first_surplus;
  for (const Constraint& row : system.rows()) {
    std::vector<Rational> coeffs(total_cols);
    for (int i = 0; i < n; ++i) {
      coeffs[i] = row.coeffs[i];
      if (neg_col[i] >= 0) coeffs[neg_col[i]] = -row.coeffs[i];
    }
    if (row.rel == Relation::kGe) {
      // coeffs.x + constant - s = 0  =>  coeffs.x - s = -constant
      coeffs[surplus_index++] = Rational(-1);
    }
    tableau.AddRow(std::move(coeffs), -row.constant);
  }

  int first_artificial = tableau.AppendIdentityBasis();
  int pivots = 0;
  // Records on every exit path; the body compiles away with TERMILOG_OBS.
  struct PivotRecorder {
    const int& pivots;
    ~PivotRecorder() {
      TERMILOG_COUNTER("simplex.solves", 1);
      TERMILOG_COUNTER(LpCallerScope::Current(), 1);
      TERMILOG_COUNTER("simplex.pivots", pivots);
      TERMILOG_HISTOGRAM("simplex.pivots_per_solve", pivots);
    }
  } pivot_recorder{pivots};

  // Phase 1: minimize the sum of artificials.
  std::vector<Rational> phase1_obj(tableau.num_cols());
  for (int c = first_artificial; c < tableau.num_cols(); ++c) {
    phase1_obj[c] = Rational(1);
  }
  LpStatus status = tableau.Optimize(phase1_obj, &pivots, governor);
  LpResult result;
  if (status != LpStatus::kOptimal) {
    // Phase 1 is bounded below by zero, so kUnbounded cannot happen.
    result.status = status;
    return result;
  }
  if (tableau.objective_value().sign() > 0) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  tableau.RemoveArtificials(first_artificial);

  // Phase 2.
  std::vector<Rational> phase2_obj(tableau.num_cols());
  if (!objective.empty()) {
    for (int i = 0; i < n; ++i) {
      phase2_obj[i] = objective[i];
      if (neg_col[i] >= 0) phase2_obj[neg_col[i]] = -objective[i];
    }
  }
  status = tableau.Optimize(phase2_obj, &pivots, governor);
  result.status = status;
  if (status != LpStatus::kOptimal) return result;

  std::vector<Rational> cols = tableau.Solution();
  result.point.resize(n);
  for (int i = 0; i < n; ++i) {
    result.point[i] = cols[i];
    if (neg_col[i] >= 0) result.point[i] -= cols[neg_col[i]];
  }
  result.objective = tableau.objective_value();
  TERMILOG_CHECK_MSG(system.SatisfiedBy(result.point),
                     "simplex returned an infeasible point");
  return result;
}

}  // namespace

#ifdef TERMILOG_OBS_ENABLED
LpCallerScope::LpCallerScope(const char* counter)
    : saved_(current_lp_caller) {
  current_lp_caller = counter;
}

LpCallerScope::~LpCallerScope() { current_lp_caller = saved_; }

const char* LpCallerScope::Current() { return current_lp_caller; }
#endif

LpResult SimplexSolver::Minimize(const ConstraintSystem& system,
                                 const std::vector<Rational>& objective,
                                 const std::vector<bool>& is_free,
                                 const ResourceGovernor* governor) {
  return SolveMin(system, objective, is_free, governor);
}

LpResult SimplexSolver::Maximize(const ConstraintSystem& system,
                                 const std::vector<Rational>& objective,
                                 const std::vector<bool>& is_free,
                                 const ResourceGovernor* governor) {
  std::vector<Rational> negated = objective;
  for (Rational& c : negated) c.Negate();
  LpResult result = SolveMin(system, negated, is_free, governor);
  result.objective.Negate();
  return result;
}

LpResult SimplexSolver::FindFeasible(const ConstraintSystem& system,
                                     const std::vector<bool>& is_free,
                                     const ResourceGovernor* governor) {
  return SolveMin(system, {}, is_free, governor);
}

Entailment SimplexSolver::Entails(int num_vars,
                                  const std::vector<const Constraint*>& rows,
                                  const Constraint& target,
                                  const ResourceGovernor* governor) {
  TERMILOG_CHECK(target.rel == Relation::kGe &&
                 target.num_vars() == num_vars);
  // Sign screen: if no row can supply coefficient k with the sign the
  // target needs (a kGe row only with its own sign, a kEq row with either),
  // dual row k has no solution and the LP would report kInfeasible.
  for (int k = 0; k < num_vars; ++k) {
    const int need = target.coeffs[k].sign();
    if (need == 0) continue;
    if (std::none_of(rows.begin(), rows.end(), [&](const Constraint* r) {
          const int has = r->coeffs[k].sign();
          return has == need || (has != 0 && r->rel == Relation::kEq);
        })) {
      return Entailment::kEntailedIffEmpty;
    }
  }
  // Column j is the multiplier lambda_j of rows[j]; row k says the
  // multipliers reproduce target coefficient k:
  // sum_j lambda_j a_jk - c_k = 0.
  ConstraintSystem dual(static_cast<int>(rows.size()));
  for (int k = 0; k < num_vars; ++k) {
    Constraint row;
    row.rel = Relation::kEq;
    row.coeffs.reserve(rows.size());
    for (const Constraint* r : rows) row.coeffs.push_back(r->coeffs[k]);
    row.constant = -target.coeffs[k];
    dual.Add(std::move(row));
  }
  std::vector<Rational> cost;
  std::vector<bool> is_free;
  cost.reserve(rows.size());
  is_free.reserve(rows.size());
  for (const Constraint* r : rows) {
    cost.push_back(r->constant);
    is_free.push_back(r->rel == Relation::kEq);
  }
  LpResult lp = Minimize(dual, cost, is_free, governor);
  switch (lp.status) {
    case LpStatus::kOptimal:
      // The optimum is -(min c . x over R) by strong duality, so this is
      // exactly the primal test min c . x + d >= 0.
      return lp.objective <= target.constant ? Entailment::kEntailed
                                             : Entailment::kNotEntailed;
    case LpStatus::kUnbounded:
      // A ray mu (>= 0 on kGe rows) with sum mu_j a_j = 0 and
      // sum mu_j b_j < 0 combines R into 0 >= a negative constant: R has no
      // point.
      return Entailment::kEntailed;
    case LpStatus::kInfeasible:
      return Entailment::kEntailedIffEmpty;
    case LpStatus::kPivotLimit:
      break;
  }
  return Entailment::kUnknown;
}

}  // namespace termilog
