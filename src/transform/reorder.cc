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

Result<ReorderResult> FindTerminatingOrder(const Program& program,
                                           const PredId& query,
                                           const Adornment& adornment,
                                           const ReorderOptions& options) {
  TerminationAnalyzer analyzer(options.analysis);
  ReorderResult result;
  result.program = program;

  Result<TerminationReport> initial =
      analyzer.Analyze(result.program, query, adornment);
  if (!initial.ok()) return initial.status();
  ++result.attempts;
  result.report = std::move(initial).value();
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
        Program candidate = result.program;
        Rule& mutated = candidate.mutable_rules()[r];
        std::vector<Literal> body;
        body.reserve(body_size);
        for (int index : order) body.push_back(rule.body[index]);
        mutated.body = std::move(body);

        Result<TerminationReport> attempt =
            analyzer.Analyze(candidate, query, adornment);
        ++result.attempts;
        if (!attempt.ok()) continue;  // e.g. blowup on this order: skip
        int score = FailingSccCount(*attempt);
        if (attempt->proved || score < best_score) {
          result.log.push_back(
              StrCat("reordered rule: ",
                     candidate.rules()[r].ToString(candidate.symbols())));
          result.program = std::move(candidate);
          result.report = std::move(attempt).value();
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

Result<ReorderResult> FindTerminatingOrder(const Program& program,
                                           std::string_view query_spec,
                                           const ReorderOptions& options) {
  Result<std::pair<PredId, Adornment>> query =
      ParseQuerySpec(program, query_spec);
  if (!query.ok()) return query.status();
  return FindTerminatingOrder(program, query->first, query->second, options);
}

}  // namespace termilog
