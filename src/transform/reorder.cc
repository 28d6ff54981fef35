#include "transform/reorder.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "util/string_util.h"

namespace termilog {
namespace {

// Number of recursive SCCs the report failed to prove (the hill-climbing
// objective; 0 means fully proved).
int FailingSccCount(const TerminationReport& report) {
  int failing = 0;
  for (const SccReport& scc : report.sccs) {
    if (scc.status != SccStatus::kProved &&
        scc.status != SccStatus::kNonRecursive) {
      ++failing;
    }
  }
  return failing;
}

// Maps a (possibly adornment-cloned) predicate of `analyzed`, the program
// a report refers to, back to the predicate whose rules live in `program`.
// A clone's name is interned only in `analyzed`'s symbol table.
PredId MapToSource(const Program& program, const Program& analyzed,
                   const PredId& pred) {
  if (!program.RuleIndicesFor(pred).empty()) return pred;
  const std::string& name = analyzed.symbols().Name(pred.symbol);
  size_t cut = name.rfind("__");
  if (cut == std::string::npos) return pred;
  int base = program.symbols().Lookup(name.substr(0, cut));
  if (base < 0) return pred;
  return PredId{base, pred.arity};
}

}  // namespace

Result<ReorderResult> FindTerminatingOrder(BatchEngine& engine,
                                           const BatchRequest& request,
                                           const ReorderOptions& options) {
  ReorderResult result;
  result.program = request.program;

  BatchItemResult initial = std::move(engine.Run({request}).front());
  if (!initial.status.ok()) return initial.status;
  ++result.attempts;
  result.report = std::move(initial.report);
  result.proved = result.report.proved;
  if (result.proved) return result;

  int best_score = FailingSccCount(result.report);
  bool improved = true;
  while (improved && !result.proved &&
         result.attempts < options.max_attempts) {
    improved = false;
    // Rules whose head belongs to a failing SCC are permutation candidates.
    std::set<PredId> failing;
    for (const SccReport& scc : result.report.sccs) {
      if (scc.status == SccStatus::kProved ||
          scc.status == SccStatus::kNonRecursive) {
        continue;
      }
      for (const PredId& pred : scc.preds) {
        failing.insert(MapToSource(result.program,
                                   result.report.analyzed_program, pred));
      }
    }
    for (size_t r = 0;
         r < result.program.rules().size() && !improved && !result.proved;
         ++r) {
      const Rule& rule = result.program.rules()[r];
      size_t body_size = rule.body.size();
      if (failing.count(rule.head.pred_id()) == 0 || body_size < 2 ||
          body_size > static_cast<size_t>(options.max_body_length)) {
        continue;
      }
      std::vector<int> order(body_size);
      std::iota(order.begin(), order.end(), 0);
      while (std::next_permutation(order.begin(), order.end())) {
        if (result.attempts >= options.max_attempts) break;
        BatchRequest candidate{request.name, result.program, request.query,
                               request.adornment, request.options};
        std::vector<Literal>& body = candidate.program.mutable_rules()[r].body;
        body.clear();
        for (int index : order) body.push_back(rule.body[index]);

        BatchItemResult attempt = std::move(engine.Run({candidate}).front());
        ++result.attempts;
        if (!attempt.status.ok()) continue;  // e.g. blowup on this order: skip
        int score = FailingSccCount(attempt.report);
        if (attempt.report.proved || score < best_score) {
          result.log.push_back(StrCat(
              "reordered rule: ",
              candidate.program.rules()[r].ToString(
                  candidate.program.symbols())));
          result.program = std::move(candidate.program);
          result.report = std::move(attempt.report);
          result.proved = result.report.proved;
          best_score = score;
          improved = true;
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace termilog
