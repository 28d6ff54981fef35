#include "fm/fourier_motzkin.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "lp/simplex.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {
namespace {

// Combines a positive-coefficient and a negative-coefficient kGe row so the
// eliminated variable cancels. Both multipliers are positive, preserving
// the inequality direction.
Constraint CombineGe(const Constraint& pos, const Constraint& neg, int var) {
  const Rational& p = pos.coeffs[var];
  const Rational& q = neg.coeffs[var];
  TERMILOG_CHECK(p.sign() > 0 && q.sign() < 0);
  Constraint out;
  out.rel = Relation::kGe;
  out.coeffs.resize(pos.coeffs.size());
  // Multipliers (-q, p) cancel the eliminated column; dividing both by
  // their gcd (legal: any common positive factor) keeps the combined row's
  // coefficients as small as possible before Simplify renormalizes, which
  // is what keeps deep eliminations inside the Rational int64 fast path.
  // Rows are integer after Simplify, so the integer case is the hot one.
  Rational mp, mq;
  int64_t pn = 0, qn = 0;
  if (p.GetInt64(&pn) && q.GetInt64(&qn)) {
    // g divides pn > 0, so it fits int64; -(qn / g) may be 2^63, which
    // Rational negation holds exactly.
    auto g = static_cast<int64_t>(
        std::gcd(static_cast<uint64_t>(pn), 0u - static_cast<uint64_t>(qn)));
    mp = -Rational(qn / g);
    mq = Rational(pn / g);
  } else if (p.is_integer() && q.is_integer()) {
    BigInt g = BigInt::Gcd(p.num(), q.num());
    mp = Rational(-(q.num() / g));
    mq = Rational(p.num() / g);
  } else {
    mp = -q;
    mq = p;
  }
  for (size_t i = 0; i < out.coeffs.size(); ++i) {
    out.coeffs[i] = pos.coeffs[i] * mp + neg.coeffs[i] * mq;
  }
  out.constant = pos.constant * mp + neg.constant * mq;
  TERMILOG_CHECK(out.coeffs[var].is_zero());
  return out;
}

// Substitutes an equality row (pivot) into `row` so that `row` no longer
// mentions x_var. The pivot is scaled by a signed factor, which is legal
// because it is an equality.
Constraint SubstituteEq(const Constraint& row, const Constraint& pivot,
                        int var) {
  const Rational& c = row.coeffs[var];
  if (c.is_zero()) return row;
  Rational factor = -(c / pivot.coeffs[var]);
  Constraint out = row;
  for (size_t i = 0; i < out.coeffs.size(); ++i) {
    out.coeffs[i] = out.coeffs[i] + pivot.coeffs[i] * factor;
  }
  out.constant = out.constant + pivot.constant * factor;
  TERMILOG_CHECK(out.coeffs[var].is_zero());
  return out;
}

}  // namespace

Status FourierMotzkin::EliminateVariable(ConstraintSystem* system, int var,
                                         const FmOptions& options) {
  TERMILOG_CHECK(var >= 0 && var < system->num_vars());
  TERMILOG_FAILPOINT("fm.eliminate");
  TERMILOG_TRACE("fm.eliminate", "fm");
  TERMILOG_COUNTER("fm.eliminations", 1);

  // Prefer a Gaussian step on an equality row mentioning the variable.
  int pivot_index = -1;
  for (size_t i = 0; i < system->rows().size(); ++i) {
    const Constraint& row = system->rows()[i];
    if (row.rel == Relation::kEq && !row.coeffs[var].is_zero()) {
      pivot_index = static_cast<int>(i);
      break;
    }
  }
  if (pivot_index >= 0) {
    TERMILOG_COUNTER("fm.gauss_steps", 1);
    if (options.governor != nullptr) {
      Status charged = options.governor->Charge(
          "fm.eliminate", static_cast<int64_t>(system->rows().size()));
      if (!charged.ok()) return charged;
    }
    Constraint pivot = system->rows()[pivot_index];
    std::vector<Constraint> next;
    next.reserve(system->rows().size() - 1);
    for (size_t i = 0; i < system->rows().size(); ++i) {
      if (static_cast<int>(i) == pivot_index) continue;
      next.push_back(SubstituteEq(system->rows()[i], pivot, var));
    }
    system->mutable_rows() = std::move(next);
    system->Simplify();
    return Status::Ok();
  }

  // Plain FM on the inequality rows.
  std::vector<Constraint> zero, pos, neg;
  for (const Constraint& row : system->rows()) {
    int sign = row.coeffs[var].sign();
    if (sign == 0) {
      zero.push_back(row);
    } else if (sign > 0) {
      pos.push_back(row);
    } else {
      neg.push_back(row);
    }
  }
  size_t projected = zero.size() + pos.size() * neg.size();
  TERMILOG_COUNTER("fm.rows_generated",
                   static_cast<std::int64_t>(pos.size() * neg.size()));
  TERMILOG_COUNTER("fm.rows_eliminated",
                   static_cast<std::int64_t>(pos.size() + neg.size()));
  TERMILOG_HISTOGRAM("fm.rows_per_step",
                     static_cast<std::int64_t>(projected));
  if (projected > options.row_limit) {
    return Status::ResourceExhausted(
        StrCat("FM blowup eliminating x", var, ": ", projected, " rows"));
  }
  // One work tick per row combination: the pairing product is exactly the
  // number of CombineGe calls below.
  if (options.governor != nullptr) {
    Status charged = options.governor->Charge(
        "fm.eliminate", static_cast<int64_t>(projected) + 1);
    if (!charged.ok()) return charged;
  }
  std::vector<Constraint> next = std::move(zero);
  for (const Constraint& p : pos) {
    for (const Constraint& n : neg) {
      next.push_back(CombineGe(p, n, var));
    }
  }
  system->mutable_rows() = std::move(next);
  system->Simplify();
  if (options.lp_prune && system->size() > options.lp_prune_threshold) {
    LpPruneRedundant(system, options.governor);
  }
  return Status::Ok();
}

Result<ConstraintSystem> FourierMotzkin::Project(
    const ConstraintSystem& system, const std::vector<int>& keep,
    const FmOptions& options) {
  TERMILOG_TRACE("fm.project", "fm");
  std::vector<bool> keep_mask(system.num_vars(), false);
  for (int var : keep) {
    TERMILOG_CHECK(var >= 0 && var < system.num_vars());
    keep_mask[var] = true;
  }
  ConstraintSystem work = system;
  work.Simplify();

  // Repeatedly eliminate the cheapest remaining variable: equality pivots
  // are free, otherwise minimize the pos*neg pairing growth.
  while (true) {
    int best_var = -1;
    long best_cost = -1;
    bool best_is_eq = false;
    std::vector<int> pos_count(work.num_vars(), 0);
    std::vector<int> neg_count(work.num_vars(), 0);
    std::vector<bool> in_eq(work.num_vars(), false);
    std::vector<bool> used(work.num_vars(), false);
    for (const Constraint& row : work.rows()) {
      for (int v = 0; v < work.num_vars(); ++v) {
        int sign = row.coeffs[v].sign();
        if (sign == 0) continue;
        used[v] = true;
        if (row.rel == Relation::kEq) {
          in_eq[v] = true;
        } else if (sign > 0) {
          ++pos_count[v];
        } else {
          ++neg_count[v];
        }
      }
    }
    for (int v = 0; v < work.num_vars(); ++v) {
      if (keep_mask[v] || !used[v]) continue;
      long cost;
      bool is_eq = in_eq[v];
      if (is_eq) {
        cost = 0;
      } else {
        cost = static_cast<long>(pos_count[v]) * neg_count[v] -
               pos_count[v] - neg_count[v];
      }
      if (best_var < 0 || (is_eq && !best_is_eq) ||
          (is_eq == best_is_eq && cost < best_cost)) {
        best_var = v;
        best_cost = cost;
        best_is_eq = is_eq;
      }
    }
    if (best_var < 0) break;
    Status status = EliminateVariable(&work, best_var, options);
    if (!status.ok()) return status;
  }

  // Compact columns to the keep order.
  ConstraintSystem out(static_cast<int>(keep.size()));
  for (const Constraint& row : work.rows()) {
    Constraint compact;
    compact.rel = row.rel;
    compact.constant = row.constant;
    compact.coeffs.resize(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      compact.coeffs[i] = row.coeffs[keep[i]];
    }
    out.Add(std::move(compact));
  }
  out.Simplify();
  return out;
}

void FourierMotzkin::LpPruneRedundant(ConstraintSystem* system,
                                      const ResourceGovernor* governor) {
  TERMILOG_TRACE("fm.lp_prune", "fm");
  TERMILOG_LP_CALLER("simplex.solves.prune");
  std::vector<Constraint>& rows = system->mutable_rows();
  const int n = system->num_vars();
  // Rows are tested from the end (matching the historical erase order, so
  // the surviving set and its order are unchanged) but removal is deferred:
  // pruned rows are only flagged here and dropped in one stable compaction
  // pass below, instead of an O(rows) vector::erase per pruned row.
  std::vector<bool> alive(rows.size(), true);
  size_t pruned = 0;
  // Whether the alive rows have a point, once known. Pruning drops only
  // rows the others entail, which never changes the point set, so one
  // answer holds for the whole pass.
  std::optional<bool> feasible;
  auto alive_rows = [&](size_t skip) {
    std::vector<const Constraint*> out;
    out.reserve(rows.size());
    for (size_t j = 0; j < rows.size(); ++j) {
      if (j != skip && alive[j]) out.push_back(&rows[j]);
    }
    return out;
  };
  // kOptimal, kInfeasible, or kPivotLimit (undecided) for `subset`.
  auto find_feasible = [&](const std::vector<const Constraint*>& subset) {
    ConstraintSystem copy(n);
    for (const Constraint* r : subset) copy.Add(*r);
    return SimplexSolver::FindFeasible(copy, std::vector<bool>(n, true),
                                       governor)
        .status;
  };
  // Whether the alive rows have a point: the origin is a cheap witness (a
  // row holds there iff its constant does), then one LP. Nullopt when the
  // LP is cut short.
  auto system_feasible = [&]() -> std::optional<bool> {
    std::vector<const Constraint*> all = alive_rows(rows.size());  // no skip
    if (std::all_of(all.begin(), all.end(), [](const Constraint* r) {
          return r->ConstantRowHolds();
        })) {
      return true;
    }
    LpStatus status = find_feasible(all);
    if (status == LpStatus::kPivotLimit) return std::nullopt;
    return status == LpStatus::kOptimal;
  };
  for (size_t i = rows.size(); i-- > 0;) {
    // A system left unpruned is still correct, so an exhausted budget just
    // stops the optimization.
    if (governor != nullptr && governor->exhausted()) break;
    const Constraint& row = rows[i];
    if (row.rel == Relation::kEq) continue;
    std::vector<const Constraint*> rest = alive_rows(i);
    Entailment entailment = SimplexSolver::Entails(n, rest, row, governor);
    bool redundant = entailment == Entailment::kEntailed;
    if (entailment == Entailment::kEntailedIffEmpty) {
      // Redundant only if `rest` has no point. No rows, or one non-constant
      // row, always has a point; so does every subset of a feasible system.
      // An infeasible system says nothing about `rest`, and an undecided
      // answer keeps the row.
      bool rest_has_point =
          rest.empty() || (rest.size() == 1 && !rest[0]->IsConstantRow());
      if (!rest_has_point) {
        if (!feasible.has_value()) feasible = system_feasible();
        rest_has_point = feasible.value_or(true) ||
                         find_feasible(rest) != LpStatus::kInfeasible;
      }
      redundant = !rest_has_point;
    }
    if (redundant) {
      TERMILOG_COUNTER("fm.rows_pruned", 1);
      alive[i] = false;
      ++pruned;
    }
  }
  if (pruned == 0) return;
  size_t write = 0;
  for (size_t read = 0; read < rows.size(); ++read) {
    if (!alive[read]) continue;
    if (write != read) rows[write] = std::move(rows[read]);
    ++write;
  }
  TERMILOG_DCHECK(write + pruned == rows.size());
  rows.resize(write);
}

}  // namespace termilog
