// E1-E3: regenerates the paper's worked examples (3.1/4.1, 5.1, 6.1) --
// the verdicts, certificates, forced deltas and reduced constraints the
// paper prints -- and times the end-to-end analysis of each.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

const CorpusEntry& Entry(const char* name) {
  const CorpusEntry* entry = FindCorpusEntry(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "missing corpus entry %s\n", name);
    std::abort();
  }
  return *entry;
}

TerminationReport AnalyzeEntry(const CorpusEntry& entry) {
  Program program = ParseProgram(entry.source).value();
  AnalysisOptions options;
  options.apply_transformations = entry.needs_transformations;
  options.allow_negative_deltas = entry.needs_negative_deltas;
  options.supplied_constraints = entry.supplied_constraints;
  TerminationAnalyzer analyzer(options);
  return analyzer.Analyze(program, entry.query).value();
}

void PrintExperiment(const char* id, const char* name,
                     const char* paper_expectation) {
  const CorpusEntry& entry = Entry(name);
  TerminationReport report = AnalyzeEntry(entry);
  std::printf("---- %s: %s (%s) ----\n", id, name, entry.paper_ref.c_str());
  std::printf("paper: %s\n", paper_expectation);
  std::printf("measured:\n%s\n", report.ToString().c_str());
}

void BM_AnalyzeExample(benchmark::State& state, const char* name) {
  const CorpusEntry& entry = Entry(name);
  Program program = ParseProgram(entry.source).value();
  AnalysisOptions options;
  options.apply_transformations = entry.needs_transformations;
  options.allow_negative_deltas = entry.needs_negative_deltas;
  options.supplied_constraints = entry.supplied_constraints;
  TerminationAnalyzer analyzer(options);
  for (auto _ : state) {
    Result<TerminationReport> report = analyzer.Analyze(program, entry.query);
    benchmark::DoNotOptimize(report.ok());
  }
}

// Analysis WITHOUT the inference phase (constraints supplied), isolating
// the Section 4-6 pipeline cost.
void BM_AnalyzePermSuppliedConstraints(benchmark::State& state) {
  const CorpusEntry& entry = Entry("perm");
  Program program = ParseProgram(entry.source).value();
  AnalysisOptions options;
  options.run_inference = false;
  options.supplied_constraints = {{"append/3", "a1 + a2 = a3"},
                                  {"append__ffb/3", "a1 + a2 = a3"},
                                  {"append__bbf/3", "a1 + a2 = a3"}};
  TerminationAnalyzer analyzer(options);
  for (auto _ : state) {
    Result<TerminationReport> report = analyzer.Analyze(program, entry.query);
    benchmark::DoNotOptimize(report.ok());
  }
}

BENCHMARK_CAPTURE(BM_AnalyzeExample, e1_perm, "perm")->UseRealTime();
BENCHMARK_CAPTURE(BM_AnalyzeExample, e2_merge, "merge")->UseRealTime();
BENCHMARK_CAPTURE(BM_AnalyzeExample, e3_expr_parser, "expr_parser")
    ->UseRealTime();
BENCHMARK(BM_AnalyzePermSuppliedConstraints)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E1-E3: the paper's worked examples ====\n\n");
  PrintExperiment(
      "E1", "perm",
      "PROVED; imported append1+append2=append3; reduced constraint "
      "2*theta >= 1; certificate theta = 1/2 (Examples 3.1/4.1)");
  PrintExperiment(
      "E2", "merge",
      "PROVED; theta1 = theta2 >= 1/2: the SUM of the two bound arguments "
      "decreases on every recursive call (Example 5.1)");
  PrintExperiment(
      "E3", "expr_parser",
      "PROVED; imported t1 >= 2+t2; delta_et = delta_tn = 0 forced, "
      "delta_ne = 1; alpha = beta = gamma = 1/2 (Example 6.1)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
