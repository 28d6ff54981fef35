#include "core/dual_builder.h"

#include <set>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {

ThetaSpace::ThetaSpace(const std::map<PredId, int>& bound_counts)
    : counts_(bound_counts) {
  for (const auto& [pred, count] : bound_counts) {
    offsets_[pred] = total_;
    total_ += count;
  }
}

int ThetaSpace::Column(const PredId& pred, int ordinal) const {
  auto it = offsets_.find(pred);
  TERMILOG_CHECK_MSG(it != offsets_.end(), "predicate not in theta space");
  TERMILOG_CHECK(ordinal >= 0 && ordinal < counts_.at(pred));
  return it->second + ordinal;
}

int ThetaSpace::CountFor(const PredId& pred) const {
  auto it = counts_.find(pred);
  return it == counts_.end() ? 0 : it->second;
}

std::string ThetaSpace::ColumnName(const Program& program, int column) const {
  for (const auto& [pred, offset] : offsets_) {
    int count = counts_.at(pred);
    if (column >= offset && column < offset + count) {
      return StrCat("theta[", program.symbols().Name(pred.symbol), "][",
                    column - offset + 1, "]");
    }
  }
  return StrCat("theta?", column);
}

Result<DerivedConstraints> BuildDerivedConstraints(
    const RuleSubgoalSystem& sys, const ThetaSpace& space,
    const FmOptions& options) {
  TERMILOG_FAILPOINT("dual.build");
  TERMILOG_CHECK_MSG(sys.A.AllNonNegative() && sys.B.AllNonNegative(),
                     "Eq. 9 direct construction requires A, B >= 0");
  for (const Rational& value : sys.a) TERMILOG_CHECK(value.sign() >= 0);
  for (const Rational& value : sys.b) TERMILOG_CHECK(value.sign() >= 0);

  const int M = sys.num_imported();
  const int T = space.total();
  const int delta_col = M + T;
  const int width = M + T + 1;
  ConstraintSystem system(width);

  // One row per phi column: (C^T w)_k + (A^T theta)_k - (B^T eta)_k >= 0.
  for (int k = 0; k < sys.num_phi(); ++k) {
    Constraint row;
    row.rel = Relation::kGe;
    row.coeffs.assign(width, Rational());
    for (int m = 0; m < M; ++m) row.coeffs[m] = sys.C.At(m, k);
    for (int i = 0; i < sys.nx(); ++i) {
      int col = M + space.Column(sys.head_pred, i);
      row.coeffs[col] += sys.A.At(i, k);
    }
    for (int j = 0; j < sys.ny(); ++j) {
      int col = M + space.Column(sys.subgoal_pred, j);
      row.coeffs[col] -= sys.B.At(j, k);
    }
    system.Add(std::move(row));
  }
  // Objective row: c^T w + a^T theta - b^T eta - delta >= 0.
  {
    Constraint row;
    row.rel = Relation::kGe;
    row.coeffs.assign(width, Rational());
    for (int m = 0; m < M; ++m) row.coeffs[m] = sys.c[m];
    for (int i = 0; i < sys.nx(); ++i) {
      int col = M + space.Column(sys.head_pred, i);
      row.coeffs[col] += sys.a[i];
    }
    for (int j = 0; j < sys.ny(); ++j) {
      int col = M + space.Column(sys.subgoal_pred, j);
      row.coeffs[col] -= sys.b[j];
    }
    row.coeffs[delta_col] = Rational(-1);
    system.Add(std::move(row));
  }

  // Eliminate the free dual variables w, keeping theta and delta columns.
  std::vector<int> keep;
  keep.reserve(T + 1);
  for (int t = 0; t < T + 1; ++t) keep.push_back(M + t);
  Result<ConstraintSystem> projected =
      FourierMotzkin::Project(system, keep, options);
  if (!projected.ok()) return projected.status();

  DerivedConstraints out;
  out.i = sys.head_pred;
  out.j = sys.subgoal_pred;
  out.rule_index = sys.rule_index;
  out.subgoal_index = sys.subgoal_index;
  for (const Constraint& row : projected->rows()) {
    TERMILOG_CHECK(row.rel == Relation::kGe);
    ThetaRow theta_row;
    theta_row.theta_coeffs.assign(row.coeffs.begin(), row.coeffs.begin() + T);
    theta_row.delta_coeff = row.coeffs[T];
    theta_row.constant = row.constant;
    out.rows.push_back(std::move(theta_row));
  }
  return out;
}

Result<SccDerivation> DeriveScc(const Program& program,
                                const std::vector<PredId>& scc_preds,
                                const std::map<PredId, Adornment>& modes,
                                const ArgSizeDb& db, const FmOptions& fm) {
  RuleSystemBuilder builder(program, modes, db);
  Result<std::vector<RuleSubgoalSystem>> systems = [&] {
    TERMILOG_TRACE("scc.rule_system", "analyzer");
    return builder.BuildForScc(
        std::set<PredId>(scc_preds.begin(), scc_preds.end()));
  }();
  if (!systems.ok()) return systems.status();

  std::map<PredId, int> bound_counts;
  for (const PredId& pred : scc_preds) {
    int count = 0;
    for (Mode m : modes.at(pred)) {
      if (m == Mode::kBound) ++count;
    }
    bound_counts[pred] = count;
  }
  SccDerivation derivation{std::move(systems).value(),
                           ThetaSpace(bound_counts), {}};
  if (derivation.systems.empty()) return derivation;

  TERMILOG_TRACE("scc.derive", "analyzer");
  for (const RuleSubgoalSystem& sys : derivation.systems) {
    Result<DerivedConstraints> d =
        BuildDerivedConstraints(sys, derivation.space, fm);
    if (!d.ok()) return d.status();
    derivation.derived.push_back(std::move(d).value());
  }
  return derivation;
}

}  // namespace termilog
