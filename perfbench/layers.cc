// Per-layer measurement: clocks, trace snapshots, the layer-by-layer
// replay of the engine pipeline, and the per-layer metric table.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "termibench.h"

namespace termibench {

using namespace termilog;

void RepResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double TraceSnapshot::TotalMs(const std::string& span) const {
  auto it = spans.find(span);
  return it == spans.end() ? 0.0
                           : static_cast<double>(it->second.total_us) / 1e3;
}

double TraceSnapshot::SelfMs(const std::string& span) const {
  auto it = spans.find(span);
  return it == spans.end() ? 0.0
                           : static_cast<double>(it->second.self_us) / 1e3;
}

int64_t TraceSnapshot::Count(const std::string& span) const {
  auto it = spans.find(span);
  return it == spans.end() ? 0 : it->second.count;
}

int64_t TraceSnapshot::Counter(const std::string& name) const {
  auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

const obs::HistogramSnapshot* TraceSnapshot::Histogram(
    const std::string& name) const {
  auto it = metrics.histograms.find(name);
  return it == metrics.histograms.end() ? nullptr : &it->second;
}

void StartTracing() {
  obs::Tracer::Global().Enable();
  obs::Metrics::Global().Enable();
}

TraceSnapshot CaptureTrace() {
  TraceSnapshot snapshot;
  snapshot.spans = obs::Tracer::Global().AggregateByName();
  snapshot.metrics = obs::Metrics::Global().Collect();
  return snapshot;
}

void ResetTrace() {
  obs::Tracer::Global().Reset();
  obs::Metrics::Global().Reset();
}

void StopTracing() {
  obs::Tracer::Global().Disable();
  obs::Metrics::Global().Disable();
}

Verdict VerdictOf(const BatchItemResult& item) {
  Verdict verdict;
  verdict.ok = item.status.ok();
  verdict.proved = verdict.ok && item.report.proved;
  verdict.resource_limited = verdict.ok && item.report.resource_limited;
  return verdict;
}

namespace {

// Keeps the canonical keys the replay computes observable, so their cost
// is really paid.
uint64_t g_key_sink = 0;

void NoteLimbs(const ResourceGovernor& governor, int64_t* high_water) {
  *high_water =
      std::max(*high_water, governor.Spend().bigint_limb_high_water);
}

Verdict ReplayOne(const ReplayInput& input, int64_t* limbs) {
  Verdict failed;
  Result<Program> program = Status::Internal("not parsed");
  {
    obs::ScopedSpan span("bench.parse", "bench");
    program = ParseProgram(input.source);
  }
  if (!program.ok()) return failed;
  Result<std::pair<PredId, Adornment>> query =
      ParseQuerySpec(*program, input.query);
  if (!query.ok()) return failed;

  const AnalysisOptions& options = input.options;
  TerminationAnalyzer analyzer(options);
  Result<PreparedAnalysis> prepared = Status::Internal("not prepared");
  {
    obs::ScopedSpan span("bench.prepare", "bench");
    ResourceGovernor governor(options.limits);
    prepared = analyzer.PrepareStructure(*program, query->first,
                                         query->second, &governor);
    NoteLimbs(governor, limbs);
  }
  if (!prepared.ok()) return failed;
  TerminationReport& report = prepared->report;
  const Program& analyzed = report.analyzed_program;
  bool resource_limited = report.resource_limited;

  if (options.run_inference) {
    for (const InferencePlanNode& node : prepared->inference.nodes) {
      std::vector<PredId> preds = CanonicalSccOrder(analyzed, node.preds);
      ArgSizeDb snapshot;
      for (const PredId& callee : InferenceCalleePreds(analyzed, preds)) {
        if (report.arg_sizes.Has(callee)) {
          snapshot.Set(callee, report.arg_sizes.Get(callee));
        }
      }
      {
        obs::ScopedSpan span("bench.keys", "bench");
        g_key_sink ^=
            CanonicalInferenceKey(analyzed, preds, snapshot, options).digest;
      }
      Result<SccInferenceResult> result = Status::Internal("not run");
      {
        obs::ScopedSpan span("bench.run_scc", "bench");
        ResourceGovernor governor(options.limits);
        InferenceOptions inference_options = options.inference;
        inference_options.fm.governor = &governor;
        result = ConstraintInference::RunScc(analyzed, preds, snapshot,
                                             inference_options);
        NoteLimbs(governor, limbs);
      }
      if (!result.ok()) return failed;
      if (result->resource_limited) {
        resource_limited = true;
        continue;
      }
      for (auto& [pred, polyhedron] : result->entries) {
        report.arg_sizes.Set(pred, std::move(polyhedron));
      }
    }
  }

  bool proved = true;
  for (const SccTask& task : prepared->sccs) {
    if (!task.recursive) continue;
    std::vector<PredId> preds = CanonicalSccOrder(analyzed, task.preds);
    if (!task.has_conflict) {
      obs::ScopedSpan span("bench.keys", "bench");
      g_key_sink ^= CanonicalSccKey(analyzed, preds, report.modes,
                                    report.arg_sizes, options)
                        .digest;
    }
    SccReport scc;
    {
      obs::ScopedSpan span("bench.analyze_scc", "bench");
      ResourceGovernor governor(options.limits);
      scc = analyzer.AnalyzeScc(analyzed, preds, report.modes,
                                report.arg_sizes, task.has_conflict,
                                &governor);
      NoteLimbs(governor, limbs);
    }
    if (scc.status == SccStatus::kResourceLimit) resource_limited = true;
    if (scc.status != SccStatus::kProved &&
        scc.status != SccStatus::kNonRecursive) {
      proved = false;
    }
  }
  return Verdict{true, proved, resource_limited};
}

// Nearest-rank p50 of a power-of-two bucketed histogram, reported as the
// upper bound of the bucket that holds it (capped at the exact maximum).
double HistogramP50(const obs::HistogramSnapshot* histogram) {
  if (histogram == nullptr || histogram->count == 0) return 0;
  const int64_t rank = (histogram->count + 1) / 2;
  int64_t seen = 0;
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    seen += histogram->buckets[i];
    if (seen >= rank) {
      return static_cast<double>(
          std::min(obs::HistogramBucketBound(i), histogram->max));
    }
  }
  return static_cast<double>(histogram->max);
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

// Time in a layer's public function: the benchmark's own bench.* span when
// it made the calls (replay), else the library span that wraps it.
double CallMs(const TraceSnapshot& trace, const char* bench_span,
              const char* library_span) {
  return trace.Count(bench_span) > 0 ? trace.TotalMs(bench_span)
                                     : trace.TotalMs(library_span);
}

}  // namespace

std::vector<Verdict> ReplayLayers(const std::vector<ReplayInput>& inputs,
                                  int64_t* limb_high_water) {
  std::vector<Verdict> verdicts;
  verdicts.reserve(inputs.size());
  for (const ReplayInput& input : inputs) {
    verdicts.push_back(ReplayOne(input, limb_high_water));
  }
  return verdicts;
}

std::vector<std::pair<std::string, double>> LayerMetrics(
    const LayerInputs& in) {
  const TraceSnapshot& k = in.kernel;
  const TraceSnapshot& e = in.engine;
  const EngineStats& stats = in.engine_stats;
  std::vector<std::pair<std::string, double>> out;
  auto add = [&out](const char* name, double value) {
    out.emplace_back(name, value);
  };
  auto count = [](int64_t value) { return static_cast<double>(value); };

  add("program.parse_ms", k.TotalMs("bench.parse"));
  add("core.prepare_ms", CallMs(k, "bench.prepare", "prep"));
  add("transform.pipeline.self_ms", k.SelfMs("transform.pipeline"));
  add("constraints.run_scc_ms", CallMs(k, "bench.run_scc", "inference.scc"));
  add("constraints.nodes", count(k.Count("inference.scc")));
  add("constraints.sweeps", count(k.Counter("inference.sweeps")));
  add("core.analyze_scc_ms", CallMs(k, "bench.analyze_scc", "scc.analyze"));
  add("core.scc_tasks", count(k.Count("scc.analyze")));

  const double solves = count(k.Counter("simplex.solves"));
  add("fm.lp_prune.self_ms", k.SelfMs("fm.lp_prune"));
  add("fm.project.self_ms", k.SelfMs("fm.project"));
  add("fm.eliminate.self_ms", k.SelfMs("fm.eliminate"));
  add("fm.rows_generated", count(k.Counter("fm.rows_generated")));
  add("fm.rows_pruned", count(k.Counter("fm.rows_pruned")));
  add("fm.prune_yield", Ratio(count(k.Counter("fm.rows_pruned")), solves));

  const obs::HistogramSnapshot* pivots = k.Histogram("simplex.pivots_per_solve");
  add("simplex.solves", solves);
  add("simplex.pivots", count(k.Counter("simplex.pivots")));
  add("simplex.pivots_per_solve_p50", HistogramP50(pivots));
  add("simplex.pivots_per_solve_max",
      pivots == nullptr ? 0 : count(pivots->max));
  add("simplex.solve.self_ms", k.SelfMs("simplex.solve"));

  const obs::HistogramSnapshot* limbs = e.Histogram("governor.limb_high_water");
  add("rational.limb_high_water",
      count(std::max(in.replay_limb_high_water,
                     limbs == nullptr ? int64_t{0} : limbs->max)));

  const int64_t scc_lookups = stats.cache_hits + stats.cache_misses;
  const int64_t inference_lookups =
      stats.inference_cache_hits + stats.inference_cache_misses;
  add("engine.run_ms", e.TotalMs("batch.run"));
  add("engine.queue_wait_ms", in.queue_wait_ms);
  add("engine.scc_hit_ratio", Ratio(count(stats.cache_hits), count(scc_lookups)));
  add("engine.scc_lookups", count(scc_lookups));
  add("engine.inference_hit_ratio",
      Ratio(count(stats.inference_cache_hits), count(inference_lookups)));
  add("engine.inference_lookups", count(inference_lookups));
  add("engine.single_flight_waits",
      count(stats.single_flight_waits + stats.inference_single_flight_waits));
  add("engine.key_ms", k.TotalMs("bench.keys"));

  add("persist.open_ms", e.TotalMs("bench.store_open"));
  add("persist.attach_ms", e.TotalMs("bench.attach"));
  add("persist.records_loaded", count(in.store_stats.records_loaded));
  add("persist.flush_ms", e.TotalMs("bench.flush"));
  add("persist.appends", count(in.store_stats.appends));
  add("persist.store_mb", in.store_mb);

  const int64_t responses = in.net_stats.served + in.net_stats.shed +
                            in.net_stats.errors;
  add("net.served", count(in.net_stats.served));
  add("net.shed", count(in.net_stats.shed));
  add("net.errors", count(in.net_stats.errors));
  add("net.bytes_out_per_request",
      Ratio(count(in.net_stats.bytes_out), count(responses)));

  add("condinf.sweep_ms", in.condinf_sweep_ms);
  add("condinf.evaluated", count(in.condinf_evaluated));
  add("condinf.implied", count(in.condinf_implied));

  double self_ms = 0;
  for (const auto& [name, aggregate] : k.spans) {
    self_ms += static_cast<double>(aggregate.self_us) / 1e3;
  }
  add("obs.self_ms_total", self_ms);
  return out;
}

}  // namespace termibench
