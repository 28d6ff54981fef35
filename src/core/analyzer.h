#ifndef TERMILOG_CORE_ANALYZER_H_
#define TERMILOG_CORE_ANALYZER_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "constraints/inference.h"
#include "core/certificate.h"
#include "core/rule_system.h"
#include "program/ast.h"
#include "util/governor.h"
#include "util/status.h"

namespace termilog {

/// Options for the end-to-end termination analysis.
struct AnalysisOptions {
  /// Run the [VG90] inter-argument constraint inference to populate the
  /// imported feasibility constraints. When false, only the
  /// `supplied_constraints` below are used (the paper's manual-input mode,
  /// Section 8).
  bool run_inference = true;
  /// Apply the Appendix A syntactic transformations (positive-equality
  /// elimination, then alternating safe unfolding / predicate splitting)
  /// before analysis.
  bool apply_transformations = false;
  /// Appendix C: when the nonnegative-delta system is infeasible, retry
  /// with free deltas constrained only by positive-cycle path constraints.
  bool allow_negative_deltas = false;
  /// Cross-validate every PROVED verdict on the primal side (exact LP).
  bool validate_certificates = true;
  /// User-supplied inter-argument constraints: predicate spec "name/arity"
  /// -> constraint spec over a1..an (see ArgSizeDb::ParseSpec). These
  /// override / pre-empt inference for those predicates.
  std::vector<std::pair<std::string, std::string>> supplied_constraints;

  /// Resource budgets, each a limit per task: the preparation, every
  /// inference-plan node and every recursive SCC run under their own
  /// governor built from these limits (docs/engine.md, "Per-task budget
  /// semantics"). Budget trips degrade the analysis (per-SCC
  /// kResourceLimit verdicts, untransformed retry) instead of failing it.
  /// Default: unlimited.
  GovernorLimits limits;

  InferenceOptions inference;
  FmOptions fm;
};

/// Verdict for one SCC of the dependency graph.
enum class SccStatus {
  kNonRecursive,      // no recursive subgoal: nothing to prove
  kProved,            // termination certificate found and (optionally) validated
  kNotProved,         // the sufficient condition failed (no feasible theta)
  kNonPositiveCycle,  // Section 6.1 step 3: zero-weight delta cycle --
                      // "strong evidence of nontermination"
  kUnsupported,       // preconditions violated (e.g. adornment conflicts)
  kResourceLimit,     // a resource budget tripped (FM blowup, simplex pivot
                      // cap, governor deadline/work/limb limit): the SCC is
                      // unanswered, with the spend recorded in notes
};

const char* SccStatusName(SccStatus status);

/// Per-SCC analysis report.
struct SccReport {
  std::vector<PredId> preds;
  SccStatus status = SccStatus::kNonRecursive;
  /// Valid when status == kProved.
  TerminationCertificate certificate;
  bool used_negative_deltas = false;
  /// Final reduced constraints over the thetas (after delta substitution),
  /// printable; empty for non-recursive SCCs.
  std::string reduced_constraints;
  std::vector<std::string> notes;
};

/// Whole-program analysis report.
struct TerminationReport {
  /// True iff every reachable recursive SCC was proved.
  bool proved = false;
  /// True when any part of the analysis was degraded by a resource budget
  /// (an SCC verdict, the transform pipeline, or constraint inference).
  /// The report is still valid — every verdict it does contain holds —
  /// but it may be weaker than an unconstrained run's.
  bool resource_limited = false;
  /// First budget-trip message when resource_limited is set.
  std::string first_resource_trip;
  std::vector<SccReport> sccs;
  std::map<PredId, Adornment> modes;
  /// Inter-argument constraints used (inferred + supplied).
  ArgSizeDb arg_sizes;
  /// The program the verdict refers to (after transformations, if any).
  Program analyzed_program;
  std::vector<std::string> notes;
  /// Resource spend of the analysis that produced this report: work summed
  /// and limb high-water maxed over its tasks' governors, and the wall time
  /// from preparation to the last task.
  GovernorSpend spend;

  std::string ToString() const;
};

/// One schedulable unit of a prepared analysis: the predicates of one SCC
/// of the dependency graph, in condensation order (callees first).
struct SccTask {
  std::vector<PredId> preds;
  /// False for non-recursive singleton SCCs, which need no termination
  /// argument (and no worker time).
  bool recursive = false;
  /// True when a predicate of the SCC was reached with conflicting
  /// adornments even after cloning; the SCC's verdict is kUnsupported.
  bool has_conflict = false;
};

/// Everything PrepareStructure computes: the transformed program, modes,
/// supplied constraints, the SCC task list and the inference plan. The
/// embedded report is a skeleton — `sccs` is empty and `proved` unset —
/// that the batch engine completes by running the plan into `arg_sizes`,
/// analyzing each task and merging in condensation order.
struct PreparedAnalysis {
  TerminationReport report;
  std::vector<SccTask> sccs;
  /// Pending inter-argument inference work, as per-SCC nodes over the
  /// dependency-graph condensation (callees first). Populated when
  /// `run_inference` is set.
  InferencePlan inference;
};

/// Parses a query spec like "perm(b,f)" against the program's symbol
/// table; the named predicate must be defined with the given arity.
Result<std::pair<PredId, Adornment>> ParseQuerySpec(const Program& program,
                                                    std::string_view spec);

/// The paper's analyzer (Sections 3-6 plus Appendices A, C, D).
class TerminationAnalyzer {
 public:
  explicit TerminationAnalyzer(AnalysisOptions options = AnalysisOptions())
      : options_(std::move(options)) {}

  const AnalysisOptions& options() const { return options_; }

  /// Analyzes top-down termination of `query` (entry predicate + bound/free
  /// adornment) over `program`: one request on a jobs=1 BatchEngine
  /// (src/engine/), whose tasks each run under their own governor built
  /// from `options().limits`. The engine analyzes a private copy of the
  /// program, so the caller's symbol table is never written. To analyze
  /// every `:- mode` directive, plan one request each with EntryQueries and
  /// PlanRequest (src/engine/serve.h) and run them on one engine.
  Result<TerminationReport> Analyze(const Program& program,
                                    const PredId& query,
                                    const Adornment& adornment) const;

  /// Convenience overload taking "pred(b,f,...)" syntax.
  Result<TerminationReport> Analyze(const Program& program,
                                    std::string_view query_spec) const;

  /// Building blocks of Analyze, which the batch engine (src/engine/) runs
  /// as tasks: most callers want Analyze.
  ///
  /// PrepareStructure runs everything before the inference and the
  /// per-SCC analysis: transformations, mode inference with
  /// adornment-conflict cloning, supplied constraints, the dependency-graph
  /// condensation — and, when `run_inference` is set, the *plan* of the
  /// inference work (`PreparedAnalysis::inference`). The batch engine
  /// schedules the plan's nodes bottom-up over its worker pool (each under
  /// its own governor, results content-cached); ConstraintInference::Run
  /// executes the same plan serially. Prep-phase resource trips are
  /// degraded into the skeleton report's notes.
  Result<PreparedAnalysis> PrepareStructure(
      const Program& program, const PredId& query, const Adornment& adornment,
      const ResourceGovernor* governor) const;

  /// Analyzes one SCC (Sections 3-6) against the prepared modes and
  /// constraint store. Pure with respect to the analyzer: the verdict is a
  /// deterministic function of (SCC rules, modes, callee constraints,
  /// options, governor limits) — the property the engine's content-
  /// addressed cache relies on.
  SccReport AnalyzeScc(const Program& program,
                       const std::vector<PredId>& scc_preds,
                       const std::map<PredId, Adornment>& modes,
                       const ArgSizeDb& db, bool has_conflict,
                       const ResourceGovernor* governor) const;

 private:
  AnalysisOptions options_;
};

}  // namespace termilog

#endif  // TERMILOG_CORE_ANALYZER_H_
