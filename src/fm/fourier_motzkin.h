#ifndef TERMILOG_FM_FOURIER_MOTZKIN_H_
#define TERMILOG_FM_FOURIER_MOTZKIN_H_

#include <vector>

#include "linalg/constraint.h"
#include "util/governor.h"
#include "util/status.h"

namespace termilog {

/// Tuning knobs for Fourier-Motzkin elimination. The paper (Section 4)
/// notes FM is "simple and adequate in practice"; the row limit is a safety
/// valve against its worst-case doubling, and LP-based pruning keeps
/// intermediate systems minimal on the larger corpus programs. Project's
/// history filter has no knob: it drops only rows it proves redundant, so
/// it runs on every call.
struct FmOptions {
  /// Abort with kResourceExhausted if an elimination step would exceed this
  /// many rows.
  size_t row_limit = 50000;
  /// Run LpPruneRedundant when the row count after an elimination step
  /// (and, in Project, after its history filter) exceeds
  /// lp_prune_threshold. Both knobs are part of the canonical cache
  /// keys (src/engine/canonical.cc), so changing either misses every
  /// persisted entry; the pruning algorithm itself is not, because it
  /// decides the same exact facts whichever LP form it solves.
  bool lp_prune = true;
  size_t lp_prune_threshold = 48;
  /// Shared analysis budget (not owned; may be null). Every elimination
  /// step charges its row-combination count; trips surface as
  /// kResourceExhausted with the governor's structured reason.
  const ResourceGovernor* governor = nullptr;
};

/// Fourier-Motzkin variable elimination over ConstraintSystem rows.
/// Variables carry no implicit sign restriction here: nonnegativity, where
/// wanted, must be present as explicit rows. This matches the dual systems
/// of Eq. 8/9 where the `w` variables are free.
class FourierMotzkin {
 public:
  /// Eliminates x_var from the system: afterwards no row mentions it (the
  /// column remains, zeroed). Equality rows are used as substitutions when
  /// available (Gaussian step); otherwise positive/negative row pairs are
  /// combined. Returns kResourceExhausted on blowup. The system may become
  /// trivially infeasible; detect that with Simplify()/LP afterwards.
  static Status EliminateVariable(ConstraintSystem* system, int var,
                                  const FmOptions& options = FmOptions());

  /// Projects the system onto the variables in `keep` (in the given order):
  /// eliminates all others, then rewrites columns so the result has exactly
  /// keep.size() variables. Elimination order is chosen greedily to
  /// minimize the pairing product at each step. Each working row carries
  /// the history of input rows it combines; after k plain steps since the
  /// last reset (the start, a Gaussian step, a prune) a kGe row built from
  /// more than k + 1 of them is dropped without an LP, counted as
  /// fm.rows_filtered (Chernikov/Kohler; docs/arithmetic.md, section 5).
  /// EliminateVariable is the same step on fresh histories, which never
  /// filters.
  static Result<ConstraintSystem> Project(const ConstraintSystem& system,
                                          const std::vector<int>& keep,
                                          const FmOptions& options =
                                              FmOptions());

  /// Removes rows entailed by the remaining rows, testing from the last row
  /// to the first and keeping the survivors in order. Equality rows are
  /// kept. Each test is SimplexSolver::Entails, the Farkas dual over the
  /// n variables; a row whose dual is infeasible is redundant only when the
  /// other rows have no point, which is settled once per pass (cheap
  /// witnesses first, then one feasibility LP; docs/arithmetic.md,
  /// section 4). Pruning is an optimization, so a governed solver that runs
  /// out of budget simply leaves the remaining rows unpruned.
  static void LpPruneRedundant(ConstraintSystem* system,
                               const ResourceGovernor* governor = nullptr);
};

}  // namespace termilog

#endif  // TERMILOG_FM_FOURIER_MOTZKIN_H_
