// E6 (third part): end-to-end analysis scaling with program size. The
// paper claims a (theoretical) polynomial bound for the whole method;
// these sweeps measure the practical growth on three program families:
//   - a chain of K independent list-consuming SCCs (breadth),
//   - one SCC with K mutually recursive predicates (SCC width),
//   - one predicate with K rules (rule count).

#include <benchmark/benchmark.h>

#include <string>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

// p0 calls p1 calls ... calls p{K-1}; each walks its own list.
std::string ChainProgram(int k) {
  std::string source;
  for (int i = 0; i < k; ++i) {
    std::string p = "p" + std::to_string(i);
    source += p + "([], []).\n";
    source += p + "([X|Xs], [X|Ys]) :- " +
              (i + 1 < k ? "p" + std::to_string(i + 1) + "(Xs, Zs), " : "") +
              p + "(Xs, Ys).\n";
  }
  return source;
}

// q0 -> q1 -> ... -> q{K-1} -> q0, all walking the same list.
std::string MutualProgram(int k) {
  std::string source;
  for (int i = 0; i < k; ++i) {
    std::string self = "q" + std::to_string(i);
    std::string next = "q" + std::to_string((i + 1) % k);
    source += self + "([], done).\n";
    source += self + "([X|Xs], R) :- " + next + "(Xs, R).\n";
  }
  return source;
}

// One predicate with K recursive rules, each consuming a different prefix.
std::string WideProgram(int k) {
  std::string source = "w([], []).\n";
  for (int i = 1; i <= k; ++i) {
    std::string prefix = "[X1";
    for (int j = 2; j <= i; ++j) prefix += ",X" + std::to_string(j);
    prefix += "|Xs]";
    source += "w(" + prefix + ", [X1|Ys]) :- w(Xs, Ys).\n";
  }
  return source;
}

void RunAnalysis(benchmark::State& state, const std::string& source,
                 const std::string& query) {
  Program program = ParseProgram(source).value();
  TerminationAnalyzer analyzer;
  for (auto _ : state) {
    Result<TerminationReport> report = analyzer.Analyze(program, query);
    bool proved = report.ok() && report->proved;
    if (!proved) state.SkipWithError("expected PROVED");
    benchmark::DoNotOptimize(proved);
  }
}

void BM_ScaleSccChain(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunAnalysis(state, ChainProgram(k), "p0(b,f)");
  state.SetComplexityN(k);
}

void BM_ScaleMutualScc(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunAnalysis(state, MutualProgram(k), "q0(b,f)");
  state.SetComplexityN(k);
}

void BM_ScaleRuleCount(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunAnalysis(state, WideProgram(k), "w(b,f)");
  state.SetComplexityN(k);
}

BENCHMARK(BM_ScaleSccChain)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity()
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ScaleMutualScc)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity()
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ScaleRuleCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity()
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
