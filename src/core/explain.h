#ifndef TERMILOG_CORE_EXPLAIN_H_
#define TERMILOG_CORE_EXPLAIN_H_

#include <string>

#include "core/analyzer.h"
#include "program/ast.h"

namespace termilog {

/// Renders `report` — the analysis of `query` adorned `adornment` under
/// `options` — as a complete human-readable proof trace in the style of
/// the paper's worked examples (4.1, 5.1, 6.1): for every SCC, the Eq. 1
/// blocks of every (rule, recursive subgoal) pair, the Eq. 9 rows after
/// eliminating the dual variables w, the delta assignment with the
/// min-plus cycle check, the final reduced constraint system over the
/// thetas, and the certificate (or the reason the proof failed).
///
/// No analysis runs: the verdicts, constraints and certificates are the
/// report's, and each SCC's systems and rows are re-derived by DeriveScc
/// from the report's program, modes and constraints under `options.fm`.
std::string ExplainAnalysis(const TerminationReport& report,
                            const PredId& query, const Adornment& adornment,
                            const AnalysisOptions& options);

}  // namespace termilog

#endif  // TERMILOG_CORE_EXPLAIN_H_
