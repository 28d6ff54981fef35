#ifndef TERMILOG_CONDINF_CONDINF_H_
#define TERMILOG_CONDINF_CONDINF_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "condinf/lattice.h"
#include "core/analyzer.h"
#include "engine/engine.h"
#include "program/ast.h"
#include "util/status.h"

namespace termilog {
namespace condinf {

/// Options for one termination-condition sweep (docs/conditions.md).
struct ConditionsOptions {
  /// Analysis options applied to every mode-variant request. The embedded
  /// GovernorLimits are the per-mode-evaluation budget: each variant runs
  /// under its own per-task ResourceGovernor inside the engine, and the
  /// limits participate in the SCC cache key, so budgeted and unbudgeted
  /// sweeps never share entries.
  AnalysisOptions analysis;
};

/// Witness for one minimal proved mode: the full analysis report of that
/// mode's run, kept so the per-SCC certificates can be rendered.
struct ModeWitness {
  ModeBits mode = 0;
  TerminationReport report;
};

/// Termination conditions of one predicate: the answer to "under which
/// binding patterns does calling this predicate terminate?", given as the
/// monotone set's minimal elements plus lattice accounting.
struct PredConditions {
  PredId pred;
  std::string name;  // "append/3" display form (original program)
  int arity = 0;
  /// Minimal proved binding patterns, weakest first ("bf" rendering is
  /// ModeBitsToString). Every pattern above one of these is terminating by
  /// upward closure; empty means no pattern proves (or none found before
  /// truncation).
  std::vector<ModeBits> minimal_modes;
  /// One witness per minimal mode, same order.
  std::vector<ModeWitness> witnesses;
  /// Argument positions every proved pattern must bind — boundedness
  /// requirements established by the necessity probes (the backwards
  /// propagation step): top-minus-one-argument failing proves that
  /// argument necessary for the whole lattice.
  std::vector<int> required_bound;
  /// Lattice accounting: evaluated + implied_proved + implied_failed +
  /// unknown == lattice_size (2^arity). `implied_*` patterns were decided
  /// by the frontier without re-analysis; `unknown` is nonzero only when
  /// truncated.
  int64_t lattice_size = 0;
  int64_t evaluated = 0;
  int64_t implied_proved = 0;
  int64_t implied_failed = 0;
  int64_t unknown = 0;
  bool truncated = false;
  /// A mode evaluation tripped a resource budget; its verdict was counted
  /// as not-proved, so the minimal set may be weaker than an unbudgeted
  /// sweep's (deterministic for work/limb budgets).
  bool resource_limited = false;
  std::vector<std::string> notes;
};

/// Whole-program conditions report: one PredConditions per defined
/// predicate, sorted by (name, arity).
struct ConditionsReport {
  std::string name;
  /// Non-OK when the sweep could not run at all (unparseable program has
  /// no sweep; per-mode analysis errors degrade into notes instead).
  Status status = Status::Ok();
  std::vector<PredConditions> preds;
  bool resource_limited = false;
  std::vector<std::string> notes;
};

/// One program's sweep, advanced in rounds: NextRound() returns the mode
/// variants the frontier cannot decide yet (deterministic order),
/// Absorb() feeds their engine results back, and the state machine prunes
/// by upward closure and downward failure propagation until every
/// predicate's frontier is closed. Drive it with SubmitConditionsSweep or
/// RunConditionsSweeps, which submit each round to a shared engine.
///
/// Per predicate the rounds are: (1) top and bottom probes — a failed top
/// closes the whole lattice (nothing proves), a proved bottom closes it
/// dually; (2) necessity probes, one per argument: top with argument i
/// freed failing means every pattern leaving i free fails (the
/// boundedness requirement propagated backwards); (3) frontier layers,
/// ascending by bound count, skipping patterns the frontier already
/// implies. Engine-level SCC caching makes variants that adorn shared
/// structure identically hit instead of recompute.
class ConditionsSweep {
 public:
  ConditionsSweep(std::string name, Program program,
                  ConditionsOptions options);

  bool done() const;
  /// Mode-variant requests the sweep needs next (empty iff done()).
  std::vector<BatchRequest> NextRound();
  /// Results for the last NextRound(), in the same order.
  void Absorb(const std::vector<BatchItemResult>& results);
  /// Final report; valid once done().
  ConditionsReport Finish();

 private:
  struct PredSweep {
    enum class Stage { kProbe, kNecessity, kLayer, kDone };

    PredId pred;
    std::string display;
    int arity = 0;
    Stage stage = Stage::kProbe;
    int layer = 1;  // current bound-count layer during Stage::kLayer
    ModeFrontier frontier;
    std::vector<ModeBits> evaluated;          // every analyzed pattern
    std::map<ModeBits, TerminationReport> proved_reports;
    std::vector<ModeBits> pending;            // submitted this round
    int64_t evals = 0;
    bool truncated = false;
    bool resource_limited = false;
    std::vector<std::string> notes;
  };

  std::vector<ModeBits> StageCandidates(const PredSweep& ps) const;
  void AdvanceStage(PredSweep* ps) const;
  bool WasEvaluated(const PredSweep& ps, ModeBits mode) const;

  std::string name_;
  Program program_;
  ConditionsOptions options_;
  std::vector<PredSweep> preds_;
};

/// Drives `sweep` to completion over `engine` without blocking: each
/// round's mode variants are submitted with BatchEngine::Submit, and the
/// callback that delivers a round's last result absorbs the round and
/// submits the next. `on_done` receives the final report once, on an
/// engine worker (on the calling thread when the sweep needs no round);
/// like any engine callback it must not block on the engine.
void SubmitConditionsSweep(BatchEngine& engine, ConditionsSweep sweep,
                           std::function<void(ConditionsReport)> on_done);

/// Drives every sweep to completion over one engine and returns their
/// reports in sweep order; the sweeps are moved from. Sweeps advance
/// independently (SubmitConditionsSweep), so mode variants parallelize
/// across predicates, programs, and sweeps while the shared SCC cache
/// deduplicates structurally identical work. The candidate list of every
/// round is a pure function of that sweep's earlier deterministic
/// reports, so the returned reports — and their JSON rendering — are
/// byte-identical for every --jobs value.
std::vector<ConditionsReport> RunConditionsSweeps(
    BatchEngine& engine, std::vector<ConditionsSweep>& sweeps);

/// One-line JSON rendering of a conditions report (the --conditions
/// analogue of ReportToJsonLine): {"name":..,"kind":"conditions",
/// "ok":true,"preds":[{"pred":..,"minimal_modes":[..],"witnesses":[..],
/// lattice accounting...}],..}. Deterministic: equal reports produce
/// equal lines.
std::string ConditionsReportToJsonLine(const ConditionsReport& report);

/// Human-readable multi-line rendering for the plain CLI path.
std::string ConditionsReportToText(const ConditionsReport& report);

/// Declared minimal-mode expectations, as parsed from a manifest line's
/// "expect_modes" object: predicate display name -> sorted mode strings.
using ExpectedModes = std::vector<std::pair<std::string, std::vector<std::string>>>;

/// Compares a sweep report against declared expectations. Every declared
/// predicate must appear in the report with exactly the declared minimal
/// mode set. Returns the number of mismatches; descriptions (at most one
/// per mismatch) are appended to `messages` when non-null.
int CountExpectModeMismatches(const ConditionsReport& report,
                              const ExpectedModes& expected,
                              std::vector<std::string>* messages);

}  // namespace condinf
}  // namespace termilog

#endif  // TERMILOG_CONDINF_CONDINF_H_
