// E5: the method x corpus comparison matrix behind the paper's headline
// claim ("Several programs that could not be shown to terminate by earlier
// published methods are handled successfully"), plus per-method total
// analysis-time benchmarks over the corpus.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

struct LoadedEntry {
  const CorpusEntry* entry;
  Program program;
  PredId query;
  Adornment adornment;
  ArgSizeDb db;
};

std::vector<LoadedEntry>& AllLoaded() {
  static std::vector<LoadedEntry>& loaded =
      *new std::vector<LoadedEntry>([] {
        std::vector<LoadedEntry> out;
        for (const CorpusEntry& entry : Corpus()) {
          LoadedEntry l{&entry, ParseProgram(entry.source).value(), {}, {},
                        {}};
          size_t open = entry.query.find('(');
          std::string name = entry.query.substr(0, open);
          for (char c : entry.query.substr(open)) {
            if (c == 'b') l.adornment.push_back(Mode::kBound);
            if (c == 'f') l.adornment.push_back(Mode::kFree);
          }
          l.query = PredId{l.program.symbols().Intern(name),
                           static_cast<int>(l.adornment.size())};
          for (const auto& [spec, text] : entry.supplied_constraints) {
            size_t slash = spec.find('/');
            PredId pred{l.program.symbols().Intern(spec.substr(0, slash)),
                        std::atoi(spec.c_str() + slash + 1)};
            l.db.Set(pred, ArgSizeDb::ParseSpec(pred.arity, text).value());
          }
          (void)ConstraintInference::Run(l.program, &l.db);
          out.push_back(std::move(l));
        }
        return out;
      }());
  return loaded;
}

void PrintMatrix() {
  std::printf("==== E5: method x corpus matrix ====\n\n");
  std::printf("%-22s %-6s %-11s %-7s %-7s %-7s\n", "program", "truth",
              "this-paper", "naish", "uvg", "argmap");
  int counts[4] = {0, 0, 0, 0};
  int terminating = 0;
  for (LoadedEntry& l : AllLoaded()) {
    AnalysisOptions options;
    options.apply_transformations = l.entry->needs_transformations;
    options.allow_negative_deltas = l.entry->needs_negative_deltas;
    options.supplied_constraints = l.entry->supplied_constraints;
    TerminationAnalyzer analyzer(options);
    bool ours = analyzer.Analyze(l.program, l.query, l.adornment)
                    .value()
                    .proved;
    BaselineVerdict naish =
        NaishAnalyzer::Analyze(l.program, l.query, l.adornment).verdict;
    BaselineVerdict uvg =
        UvgAnalyzer::Analyze(l.program, l.query, l.adornment).verdict;
    BaselineVerdict argmap =
        ArgMapAnalyzer::Analyze(l.program, l.query, l.adornment, l.db)
            .verdict;
    if (l.entry->terminating) ++terminating;
    counts[0] += ours;
    counts[1] += naish == BaselineVerdict::kProved;
    counts[2] += uvg == BaselineVerdict::kProved;
    counts[3] += argmap == BaselineVerdict::kProved;
    auto cell = [](BaselineVerdict v) {
      return v == BaselineVerdict::kProved
                 ? "proved"
                 : v == BaselineVerdict::kUnsupported ? "n/a" : "-";
    };
    std::printf("%-22s %-6s %-11s %-7s %-7s %-7s\n", l.entry->name.c_str(),
                l.entry->terminating ? "term" : "loops",
                ours ? "proved" : "-", cell(naish), cell(uvg), cell(argmap));
  }
  std::printf("\nproved counts over %d terminating programs: this-paper=%d "
              "naish=%d uvg=%d argmap=%d\n",
              terminating, counts[0], counts[1], counts[2], counts[3]);
  std::printf("paper's claim preserved iff this-paper strictly dominates "
              "every baseline and proves perm/merge/expr_parser: %s\n\n",
              (counts[0] > counts[1] && counts[0] > counts[2] &&
               counts[0] > counts[3])
                  ? "YES"
                  : "NO");
}

void BM_CorpusThisPaper(benchmark::State& state) {
  for (auto _ : state) {
    int proved = 0;
    for (LoadedEntry& l : AllLoaded()) {
      AnalysisOptions options;
      options.apply_transformations = l.entry->needs_transformations;
      options.allow_negative_deltas = l.entry->needs_negative_deltas;
      options.supplied_constraints = l.entry->supplied_constraints;
      TerminationAnalyzer analyzer(options);
      proved += analyzer.Analyze(l.program, l.query, l.adornment)
                    .value()
                    .proved;
    }
    benchmark::DoNotOptimize(proved);
  }
}

void BM_CorpusNaish(benchmark::State& state) {
  for (auto _ : state) {
    int proved = 0;
    for (LoadedEntry& l : AllLoaded()) {
      proved += NaishAnalyzer::Analyze(l.program, l.query, l.adornment)
                    .verdict == BaselineVerdict::kProved;
    }
    benchmark::DoNotOptimize(proved);
  }
}

void BM_CorpusUvg(benchmark::State& state) {
  for (auto _ : state) {
    int proved = 0;
    for (LoadedEntry& l : AllLoaded()) {
      proved += UvgAnalyzer::Analyze(l.program, l.query, l.adornment)
                    .verdict == BaselineVerdict::kProved;
    }
    benchmark::DoNotOptimize(proved);
  }
}

void BM_CorpusArgMap(benchmark::State& state) {
  for (auto _ : state) {
    int proved = 0;
    for (LoadedEntry& l : AllLoaded()) {
      proved += ArgMapAnalyzer::Analyze(l.program, l.query, l.adornment,
                                        l.db)
                    .verdict == BaselineVerdict::kProved;
    }
    benchmark::DoNotOptimize(proved);
  }
}

BENCHMARK(BM_CorpusThisPaper)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_CorpusNaish)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CorpusUvg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CorpusArgMap)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintMatrix();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
