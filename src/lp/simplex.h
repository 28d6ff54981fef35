#ifndef TERMILOG_LP_SIMPLEX_H_
#define TERMILOG_LP_SIMPLEX_H_

#include <vector>

#include "linalg/constraint.h"
#include "rational/rational.h"
#include "util/governor.h"

namespace termilog {

/// Outcome of an LP solve.
enum class LpStatus {
  kOptimal,     // finite optimum found; point and objective valid
  kInfeasible,  // constraint set empty
  kUnbounded,   // feasible but objective unbounded in the requested direction
  kPivotLimit,  // pivot cap or governor budget tripped: the solve is
                // resource-limited, not answered. The analyzer surfaces
                // this as SccStatus::kResourceLimit.
};

/// Result of an LP solve. `point` is in the caller's variable space.
struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  Rational objective;
  std::vector<Rational> point;
};

/// What SimplexSolver::Entails decides about "rows R entail the target row
/// c . x + d >= 0" (docs/arithmetic.md, section 4).
enum class Entailment {
  kEntailed,         // a Farkas certificate exists, or R has no point
  kNotEntailed,      // some point of R violates the target
  kEntailedIffEmpty, // c is no combination of R's rows: the target is
                     // entailed exactly when R has no point, which only a
                     // feasibility check can tell
  kUnknown,          // pivot cap or governor tripped: unanswered
};

/// Exact two-phase primal simplex over rationals with Bland's anti-cycling
/// rule. This is the workhorse behind Section 4 of the paper: the final
/// termination condition is a pure feasibility problem, and the polyhedral
/// operations (entailment, redundancy pruning) are optimization calls.
///
/// Variables are nonnegative by default; `is_free` marks variables with
/// unrestricted sign (they are internally split into differences of
/// nonnegative variables). Constraint rows follow the library convention
/// `coeffs . x + constant REL 0`.
class SimplexSolver {
 public:
  /// Hard cap on pivots; exceeded => kPivotLimit. Bland's rule makes the
  /// cap unreachable on well-posed inputs, but callers must treat the
  /// status as a first-class resource-limit outcome (the analyzer maps it
  /// to SccStatus::kResourceLimit, never to a silent NOT_PROVED).
  static constexpr int kMaxPivots = 200000;

  /// Minimizes objective . x subject to `system`. A non-null `governor` is
  /// charged one work tick per pivot; when it trips the solve returns
  /// kPivotLimit (query the governor for the structured trip reason).
  static LpResult Minimize(const ConstraintSystem& system,
                           const std::vector<Rational>& objective,
                           const std::vector<bool>& is_free = {},
                           const ResourceGovernor* governor = nullptr);

  /// Maximizes objective . x subject to `system`.
  static LpResult Maximize(const ConstraintSystem& system,
                           const std::vector<Rational>& objective,
                           const std::vector<bool>& is_free = {},
                           const ResourceGovernor* governor = nullptr);

  /// Pure feasibility: returns kOptimal with a witness point, or
  /// kInfeasible.
  static LpResult FindFeasible(const ConstraintSystem& system,
                               const std::vector<bool>& is_free = {},
                               const ResourceGovernor* governor = nullptr);

  /// The library's one entailment test: do `rows` (over `num_vars` free
  /// variables) entail the kGe row `target`, c . x + d >= 0? Solved in
  /// Farkas-dual form,
  ///   min sum_j lambda_j b_j   s.t.  sum_j lambda_j a_j = c,
  /// with lambda_j >= 0 on kGe rows and free on kEq rows: an LP with one
  /// equality row per variable and one column per row, so its tableau is
  /// n x m where the primal "min c . x over R" would be m x (2n + 2m).
  /// Dual optimum <= d is a certificate; an unbounded dual proves R empty.
  /// A sign screen answers kEntailedIffEmpty without an LP when some
  /// target coefficient has a sign no row can supply. `governor` is charged
  /// one tick per dual pivot.
  static Entailment Entails(int num_vars,
                            const std::vector<const Constraint*>& rows,
                            const Constraint& target,
                            const ResourceGovernor* governor = nullptr);
};

}  // namespace termilog

#endif  // TERMILOG_LP_SIMPLEX_H_
