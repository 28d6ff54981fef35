#ifndef TERMILOG_CORE_DUAL_BUILDER_H_
#define TERMILOG_CORE_DUAL_BUILDER_H_

#include <map>
#include <string>
#include <vector>

#include "core/rule_system.h"
#include "fm/fourier_motzkin.h"
#include "util/status.h"

namespace termilog {

/// Assigns one theta column per (predicate, bound-argument) of an SCC:
/// theta_i is the nonnegative coefficient vector of predicate p_i's bound
/// arguments (Section 4).
class ThetaSpace {
 public:
  /// `bound_counts` maps each SCC predicate to its number of bound args.
  explicit ThetaSpace(const std::map<PredId, int>& bound_counts);

  int total() const { return total_; }
  /// Column of the ordinal-th bound argument of `pred`.
  int Column(const PredId& pred, int ordinal) const;
  int CountFor(const PredId& pred) const;
  const std::map<PredId, int>& offsets() const { return offsets_; }

  /// Display name "theta[p][k]" for reports; `k` is 1-based within pred.
  std::string ColumnName(const Program& program, int column) const;

 private:
  std::map<PredId, int> offsets_;
  std::map<PredId, int> counts_;
  int total_ = 0;
};

/// One constraint over the theta space plus a symbolic multiple of
/// delta_ij (the offset constant of Eq. 2):
///   theta_coeffs . THETA + delta_coeff * delta_ij + constant >= 0.
/// In the rows coming out of Eq. 9 the delta coefficient is -k with k >= 0.
struct ThetaRow {
  std::vector<Rational> theta_coeffs;
  Rational delta_coeff;
  Rational constant;
};

/// All constraints derived from one (rule, recursive subgoal) pair after
/// eliminating the dual variables w by Fourier-Motzkin (end of Section 4).
struct DerivedConstraints {
  PredId i;  // head predicate
  PredId j;  // subgoal predicate
  int rule_index = -1;
  int subgoal_index = -1;
  std::vector<ThetaRow> rows;
};

/// Builds Eq. 9 for the pair and eliminates w:
///   columns [w_1..w_M | theta | delta], rows (all >=):
///     for each phi column k:  (C^T w)_k + (A^T theta)_k - (B^T eta)_k >= 0
///     c^T w + a^T theta - b^T eta - delta >= 0
/// where eta shares theta's columns via `space` (when i == j the
/// coefficients merge, which is exactly "theta = eta" in the paper).
/// The direct construction (u := theta, v := -eta) is valid because
/// a, A, b, B >= 0; this is verified with a checked assertion.
Result<DerivedConstraints> BuildDerivedConstraints(
    const RuleSubgoalSystem& sys, const ThetaSpace& space,
    const FmOptions& options = FmOptions());

/// One SCC's termination constraints before the delta assignment
/// (Sections 3-5): the Eq. 1 system of every (rule, recursive subgoal)
/// pair, the theta space over the SCC's bound arguments, and each
/// system's Eq. 9 rows. TerminationAnalyzer::AnalyzeScc solves them;
/// ExplainAnalysis prints them.
struct SccDerivation {
  std::vector<RuleSubgoalSystem> systems;
  ThetaSpace space;
  /// derived[k] is BuildDerivedConstraints(systems[k], space, fm).
  std::vector<DerivedConstraints> derived;
};

/// Fails with kUnsupported when a needed adornment is missing, and with
/// kResourceExhausted when an elimination trips `fm`'s row limit or
/// governor. An SCC without recursive subgoals derives no systems.
Result<SccDerivation> DeriveScc(const Program& program,
                                const std::vector<PredId>& scc_preds,
                                const std::map<PredId, Adornment>& modes,
                                const ArgSizeDb& db, const FmOptions& fm);

}  // namespace termilog

#endif  // TERMILOG_CORE_DUAL_BUILDER_H_
