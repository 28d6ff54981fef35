#ifndef TERMILOG_TRANSFORM_REORDER_H_
#define TERMILOG_TRANSFORM_REORDER_H_

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "engine/engine.h"
#include "program/ast.h"
#include "util/status.h"

namespace termilog {

/// Options for the subgoal-reordering search.
struct ReorderOptions {
  /// Give up after this many analyses, the initial one included.
  int max_attempts = 64;
  /// Bodies longer than this are left alone (factorial growth).
  int max_body_length = 5;
};

/// Result of the search: the (possibly reordered) program, the final
/// report, and a log of accepted moves.
struct ReorderResult {
  Program program;
  TerminationReport report;
  bool proved = false;
  std::vector<std::string> log;
  int attempts = 0;
};

/// Implements the capture-rule idea from the paper's introduction
/// ([Ull85]; "the system can attempt to choose an order for subgoals and
/// rules that assures termination; not only does this remove the burden
/// from the user, but different orders can be chosen for different
/// bound-free query patterns"): when the analysis of `request` fails,
/// permute the bodies of the rules involved in failing SCCs — one rule at
/// a time, first-improvement hill climbing — until the program is proved
/// or the attempt budget runs out. Subgoal order never changes a rule's
/// declarative meaning, only its top-down behaviour, so accepted moves
/// are always sound.
///
/// The initial analysis and every attempt are requests on `engine`, under
/// `request`'s name, query, adornment and options, so SCCs and inference
/// nodes an attempt leaves unchanged are content-cache hits, and an
/// engine that has already run `request` serves the initial analysis.
/// Must not be called from an engine callback (it waits on `engine`).
Result<ReorderResult> FindTerminatingOrder(
    BatchEngine& engine, const BatchRequest& request,
    const ReorderOptions& options = ReorderOptions());

}  // namespace termilog

#endif  // TERMILOG_TRANSFORM_REORDER_H_
