// E6: Fourier-Motzkin elimination cost. The paper claims a polynomial
// bound via LP theory but observes that "in practice, Fourier-Motzkin
// elimination is simple and adequate"; this benchmark quantifies that on
// random systems and on the analyzer's own dual systems, ablates the
// LP-based redundancy pruning, and times the pruning kernel on the largest
// systems the corpus hands it and the hull on every lifted system it
// builds.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fm_fixture.h"
#include "termilog/termilog.h"

using namespace termilog;

namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % (hi - lo + 1));
  }

 private:
  uint64_t state_;
};

ConstraintSystem RandomSystem(Rng* rng, int num_vars, int num_rows,
                              int density_percent) {
  ConstraintSystem sys(num_vars);
  for (int r = 0; r < num_rows; ++r) {
    Constraint row;
    row.rel = Relation::kGe;
    row.coeffs.resize(num_vars);
    for (int v = 0; v < num_vars; ++v) {
      if (rng->Range(0, 99) < density_percent) {
        row.coeffs[v] = Rational(rng->Range(-3, 3));
      }
    }
    row.constant = Rational(rng->Range(-5, 5));
    sys.Add(std::move(row));
  }
  return sys;
}

void BM_ProjectRandom(benchmark::State& state) {
  const int num_vars = static_cast<int>(state.range(0));
  const int num_rows = static_cast<int>(state.range(1));
  Rng rng(42);
  ConstraintSystem sys = RandomSystem(&rng, num_vars, num_rows, 50);
  std::vector<int> keep = {0, 1};
  for (auto _ : state) {
    Result<ConstraintSystem> out = FourierMotzkin::Project(sys, keep);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetComplexityN(num_vars);
}

void BM_ProjectWithPruning(benchmark::State& state, bool prune) {
  Rng rng(7);
  ConstraintSystem sys = RandomSystem(&rng, 6, 14, 60);
  std::vector<int> keep = {0, 1};
  FmOptions options;
  options.lp_prune = prune;
  options.lp_prune_threshold = prune ? 16 : 1000000;
  for (auto _ : state) {
    Result<ConstraintSystem> out = FourierMotzkin::Project(sys, keep, options);
    benchmark::DoNotOptimize(out.ok());
  }
}

void BM_EliminateSingleVariable(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  // `pairs` lower and upper bounds on x0: elimination creates pairs^2 rows.
  ConstraintSystem base(3);
  for (int i = 1; i <= pairs; ++i) {
    Constraint lo;
    lo.rel = Relation::kGe;
    lo.coeffs = {Rational(1), Rational(-i), Rational(0)};
    lo.constant = Rational(i);
    base.Add(std::move(lo));
    Constraint hi;
    hi.rel = Relation::kGe;
    hi.coeffs = {Rational(-1), Rational(0), Rational(i)};
    hi.constant = Rational(i);
    base.Add(std::move(hi));
  }
  FmOptions options;
  options.lp_prune = false;  // measure raw quadratic growth
  for (auto _ : state) {
    ConstraintSystem sys = base;
    Status status = FourierMotzkin::EliminateVariable(&sys, 0, options);
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetComplexityN(pairs);
}

// The analyzer's real workload: eliminating the dual w variables of the
// perm rule system (Example 4.1) repeatedly.
void BM_DualElimination(benchmark::State& state) {
  const CorpusEntry& entry = *FindCorpusEntry("perm");
  Program program = ParseProgram(entry.source).value();
  ArgSizeDb db;
  PredId append{program.symbols().Lookup("append"), 3};
  db.Set(append, ArgSizeDb::ParseSpec(3, "a1 + a2 = a3").value());
  std::map<PredId, Adornment> modes;
  PredId perm{program.symbols().Lookup("perm"), 2};
  modes[perm] = {Mode::kBound, Mode::kFree};
  modes[append] = {Mode::kFree, Mode::kFree, Mode::kBound};
  RuleSystemBuilder builder(program, modes, db);
  RuleSubgoalSystem sys = builder.BuildOne(1, 2).value();
  std::map<PredId, int> counts{{perm, 1}};
  ThetaSpace space(counts);
  for (auto _ : state) {
    Result<DerivedConstraints> derived = BuildDerivedConstraints(sys, space);
    benchmark::DoNotOptimize(derived.ok());
  }
}

// One LpPruneRedundant pass over a corpus-harvested system
// (tests/data/fm_prune_inputs.txt); registered per system in main.
void BM_LpPruneHarvested(benchmark::State& state, const NamedSystem* input) {
  size_t survivors = 0;
  for (auto _ : state) {
    ConstraintSystem sys = input->system;
    FourierMotzkin::LpPruneRedundant(&sys);
    survivors = sys.size();
    benchmark::DoNotOptimize(survivors);
  }
  state.counters["rows_in"] = static_cast<double>(input->system.size());
  state.counters["rows_out"] = static_cast<double>(survivors);
}

// What ConvexHull runs past its lifting, Project and then Minimize, on
// every lifted system one corpus entry's analysis builds
// (tests/data/hull_inputs.txt); registered per entry in main.
void BM_ConvexHullHarvested(benchmark::State& state,
                            const std::vector<const NamedSystem*>* inputs) {
  size_t rows_out = 0;
  for (auto _ : state) {
    rows_out = 0;
    for (const NamedSystem* input : *inputs) {
      Polyhedron hull = Polyhedron::FromSystem(
          FourierMotzkin::Project(input->system, HullKeep(input->system))
              .value());
      hull.Minimize();
      rows_out += hull.constraints().size();
    }
    benchmark::DoNotOptimize(rows_out);
  }
  state.counters["systems"] = static_cast<double>(inputs->size());
  state.counters["rows_out"] = static_cast<double>(rows_out);
}

BENCHMARK(BM_ProjectRandom)
    ->Args({3, 6})
    ->Args({4, 8})
    ->Args({5, 10})
    ->Args({6, 12})
    ->Complexity();
BENCHMARK_CAPTURE(BM_ProjectWithPruning, with_lp_prune, true);
BENCHMARK_CAPTURE(BM_ProjectWithPruning, without_lp_prune, false);
BENCHMARK(BM_EliminateSingleVariable)->Arg(4)->Arg(8)->Arg(12)->Arg(16)
    ->Complexity();
BENCHMARK(BM_DualElimination);

void PrintGrowthTable() {
  std::printf("==== E6: FM row growth, pruned vs unpruned ====\n");
  std::printf("%-10s %-12s %-14s\n", "vars", "rows(pruned)",
              "rows(unpruned)");
  for (int n : {3, 4, 5, 6}) {
    Rng rng(n);
    ConstraintSystem sys = RandomSystem(&rng, n, 2 * n, 50);
    FmOptions pruned;
    pruned.lp_prune_threshold = 8;
    FmOptions unpruned;
    unpruned.lp_prune = false;
    Result<ConstraintSystem> a = FourierMotzkin::Project(sys, {0, 1}, pruned);
    Result<ConstraintSystem> b =
        FourierMotzkin::Project(sys, {0, 1}, unpruned);
    std::printf("%-10d %-12s %-14s\n", n,
                a.ok() ? std::to_string(a->size()).c_str() : "blowup",
                b.ok() ? std::to_string(b->size()).c_str() : "blowup");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintGrowthTable();
  static const std::vector<NamedSystem> harvested = LoadFmPruneInputs();
  for (const NamedSystem& input : harvested) {
    benchmark::RegisterBenchmark(("BM_LpPruneHarvested/" + input.name).c_str(),
                                 BM_LpPruneHarvested, &input)
        ->Unit(benchmark::kMillisecond);
  }
  // One benchmark per corpus entry, over its hulls in call order.
  static const std::vector<NamedSystem> hulls = LoadHullInputs();
  static std::vector<std::pair<std::string, std::vector<const NamedSystem*>>>
      by_entry;
  for (const NamedSystem& input : hulls) {
    if (by_entry.empty() || by_entry.back().first != input.name) {
      by_entry.emplace_back(input.name, std::vector<const NamedSystem*>());
    }
    by_entry.back().second.push_back(&input);
  }
  for (const auto& [name, inputs] : by_entry) {
    benchmark::RegisterBenchmark(("BM_ConvexHullHarvested/" + name).c_str(),
                                 BM_ConvexHullHarvested, &inputs)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
