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

  /// Resource budgets for one Analyze call. Every subsystem (transforms,
  /// inference, FM, simplex, certificate validation) charges one shared
  /// governor built from these limits; budget trips degrade the analysis
  /// (per-SCC kResourceLimit verdicts, untransformed retry) instead of
  /// failing it. Default: unlimited.
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
  /// Resource spend of the analysis that produced this report. For a serial
  /// Analyze call this is the shared governor's final snapshot; for the
  /// batch engine it is the sum over the request's per-task governors.
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

/// Everything `Analyze` computes before the per-SCC loop: the transformed
/// program, modes, inter-argument constraints, and the SCC task list. The
/// embedded report is a skeleton — `sccs` is empty and `proved` unset —
/// that the caller (the serial loop or the batch engine) completes by
/// analyzing each task and merging in condensation order.
struct PreparedAnalysis {
  TerminationReport report;
  std::vector<SccTask> sccs;
  /// Pending inter-argument inference work, as per-SCC nodes over the
  /// dependency-graph condensation (callees first). Populated by
  /// PrepareStructure when `run_inference` is set; empty after Prepare,
  /// which has already executed the plan into `report.arg_sizes`.
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
  /// adornment) over `program`.
  Result<TerminationReport> Analyze(const Program& program,
                                    const PredId& query,
                                    const Adornment& adornment) const;

  /// Convenience overload taking "pred(b,f,...)" syntax.
  Result<TerminationReport> Analyze(const Program& program,
                                    std::string_view query_spec) const;

  /// Analyzes every `:- mode(...)` directive of the program — the paper's
  /// capture-rule setting, where "different orders can be chosen for
  /// different bound-free query patterns" and each pattern needs its own
  /// termination proof. Fails if the program declares no modes.
  ///
  /// A failure while analyzing one mode (including a resource trip that
  /// escaped degradation) is isolated to that mode: its report carries the
  /// error in `notes` with proved == false, and the other modes still get
  /// real analyses.
  Result<std::vector<std::pair<ModeDecl, TerminationReport>>>
  AnalyzeDeclaredModes(const Program& program) const;

  /// Building blocks of Analyze, exposed for the batch engine
  /// (src/engine/): most callers want Analyze, which runs Prepare and then
  /// AnalyzeScc over every recursive task under one shared governor.
  ///
  /// Prepare runs everything up to (not including) the per-SCC analysis:
  /// transformations, mode inference with adornment-conflict cloning,
  /// supplied constraints, inter-argument constraint inference, and the
  /// dependency-graph condensation. Prep-phase resource trips are degraded
  /// into the skeleton report's notes exactly as in Analyze.
  Result<PreparedAnalysis> Prepare(const Program& program, const PredId& query,
                                   const Adornment& adornment,
                                   const ResourceGovernor* governor) const;

  /// Prepare minus the inter-argument inference pass: transformations,
  /// mode inference with adornment-conflict cloning, supplied constraints,
  /// the dependency-graph condensation — and, when `run_inference` is set,
  /// the *plan* of the inference work (`PreparedAnalysis::inference`)
  /// instead of its execution. The batch engine schedules the plan's nodes
  /// bottom-up over its worker pool (each under its own governor, results
  /// content-cached); Prepare is PrepareStructure plus the serial in-order
  /// execution of the plan under the shared `governor`.
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
