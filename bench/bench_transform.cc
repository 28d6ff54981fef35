// E4: the Appendix A transformation pipeline on Example A.1. The paper's
// storyline: the raw rules defeat the method; one safe-unfolding phase, a
// predicate split and another unfolding phase expose that p is not
// genuinely recursive, after which termination is easily detected.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

const char* kSource = R"(
  p(g(X)) :- e(X).
  p(g(X)) :- q(f(X)).
  q(Y) :- p(Y).
  q(f(Z)) :- p(Z), q(Z).
)";

void PrintReport() {
  std::printf("==== E4: Example A.1 and the Appendix A pipeline ====\n\n");
  Program raw = ParseProgram(kSource).value();
  std::printf("---- raw program (%zu rules) ----\n%s\n", raw.rules().size(),
              raw.ToString().c_str());

  TerminationAnalyzer plain;
  TerminationReport raw_report = plain.Analyze(raw, "p(b)").value();
  std::printf("paper: raw form NOT detected terminating\nmeasured: %s\n\n",
              raw_report.proved ? "PROVED (MISMATCH)" : "not proved (match)");

  PredId p_pred{raw.symbols().Lookup("p"), 1};
  std::vector<std::string> log;
  Program transformed =
      RunTransformPipeline(raw, {p_pred}, TransformOptions(), &log).value();
  std::printf("---- pipeline log ----\n");
  for (const std::string& line : log) std::printf("  %s\n", line.c_str());
  std::printf("---- transformed program (%zu rules) ----\n%s\n",
              transformed.rules().size(), transformed.ToString().c_str());

  AnalysisOptions options;
  options.apply_transformations = true;
  TerminationAnalyzer analyzer(options);
  TerminationReport report = analyzer.Analyze(raw, "p(b)").value();
  std::printf(
      "paper: after the transformations, 'the fact that p is not genuinely "
      "recursive has been exposed' and termination is detected\n"
      "measured:\n%s\n",
      report.ToString().c_str());
}

void BM_PipelineOnly(benchmark::State& state) {
  Program raw = ParseProgram(kSource).value();
  PredId p_pred{raw.symbols().Lookup("p"), 1};
  for (auto _ : state) {
    Result<Program> out =
        RunTransformPipeline(raw, {p_pred}, TransformOptions());
    benchmark::DoNotOptimize(out.ok());
  }
}

void BM_TransformAndAnalyze(benchmark::State& state) {
  Program raw = ParseProgram(kSource).value();
  AnalysisOptions options;
  options.apply_transformations = true;
  TerminationAnalyzer analyzer(options);
  for (auto _ : state) {
    Result<TerminationReport> report = analyzer.Analyze(raw, "p(b)");
    benchmark::DoNotOptimize(report.ok());
  }
}

// Scaling: chains of k split/unfold-requiring predicates.
void BM_PipelineChain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::string source;
  for (int i = 0; i < k; ++i) {
    // pi(a). pi(X) :- q_i(X, Y), pi(Y). ri(Z) :- pi(f(Z)).
    std::string p = "p" + std::to_string(i);
    source += p + "(a). " + p + "(X) :- edge" + std::to_string(i) +
              "(X, Y), " + p + "(Y). r" + std::to_string(i) + "(Z) :- " + p +
              "(f(Z)).\n";
  }
  Program program = ParseProgram(source).value();
  for (auto _ : state) {
    Result<Program> out = RunTransformPipeline(program, {},
                                               TransformOptions());
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetComplexityN(k);
}

// Capture-rule reordering (paper introduction / [Ull85]): un-scramble a
// quicksort whose partition follows the recursive calls.
void BM_ReorderScrambledQuicksort(benchmark::State& state) {
  Program scrambled = ParseProgram(R"(
    qs([], []).
    qs([X|Xs], S) :- qs(L, SL), qs(G, SG), part(X, Xs, L, G),
                     append(SL, [X|SG], S).
    part(P, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- P < X, part(P, Xs, L, G).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )").value();
  std::pair<PredId, Adornment> query =
      ParseQuerySpec(scrambled, "qs(b,f)").value();
  BatchRequest request{"qs", scrambled, query.first, query.second, {}};
  ReorderOptions options;
  options.max_attempts = 128;
  for (auto _ : state) {
    // A fresh engine per search: one cold --reorder run.
    BatchEngine engine;
    Result<ReorderResult> r = FindTerminatingOrder(engine, request, options);
    benchmark::DoNotOptimize(r.ok() && r->proved);
  }
}

BENCHMARK(BM_PipelineOnly);
BENCHMARK(BM_ReorderScrambledQuicksort)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_TransformAndAnalyze)->UseRealTime();
BENCHMARK(BM_PipelineChain)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
