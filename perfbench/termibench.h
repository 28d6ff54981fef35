// Shared declarations of the termibench binary (see README.md in this
// directory). One process runs one repetition ("rep") of one workload and
// prints one JSON object; run.py repeats reps and reports medians.

#ifndef TERMIBENCH_TERMIBENCH_H_
#define TERMIBENCH_TERMIBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "termilog/termilog.h"

namespace termibench {

struct RepOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Enables obs::Tracer and obs::Metrics and collects per-layer metrics.
  bool trace = false;
  /// Shrinks every workload to a few requests (self-test).
  bool tiny = false;
  /// Falsifies one expectation so the correctness gate must fire.
  bool falsify = false;
  /// Directory for the gen_warm store and serve socket/store files.
  std::string dir;
};

/// What one rep measured. Latencies are microseconds per request.
struct RepResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  std::vector<double> setup_s;        // one sample per setup repetition
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  int64_t requests = 0;
  int64_t light_count = 0;
  double light_seconds = 0;
  std::vector<int64_t> light_us;
  std::vector<int64_t> heavy_us;
  /// Per-layer metrics (traced reps only), in emission order.
  std::vector<std::pair<std::string, double>> layers;

  void Fail(const std::string& what);
};

// --- workloads.cc ---------------------------------------------------------

RepResult RunCorpusCold(const RepOptions& options);
RepResult RunGenCold(const RepOptions& options);
RepResult RunGenWarm(const RepOptions& options);
RepResult RunServeMixed(const RepOptions& options);

/// Builds the gen_warm store and its reference report lines from a cold
/// run of the gen_cold requests. Returns false (with a message on stderr)
/// when the cold run itself fails its verdict gate.
bool FillWarmStore(const RepOptions& options);

// --- layers.cc ------------------------------------------------------------

/// Wall and CPU clocks plus peak RSS of this process.
double NowSeconds();
double CpuSeconds();
double PeakRssMb();

/// The tracer's per-name aggregates and the metrics registry at one point.
struct TraceSnapshot {
  std::map<std::string, termilog::obs::Tracer::PhaseAggregate> spans;
  termilog::obs::MetricsSnapshot metrics;

  double TotalMs(const std::string& span) const;
  double SelfMs(const std::string& span) const;
  int64_t Count(const std::string& span) const;
  int64_t Counter(const std::string& name) const;
  const termilog::obs::HistogramSnapshot* Histogram(
      const std::string& name) const;
};

void StartTracing();
TraceSnapshot CaptureTrace();
/// Drops recorded spans and zeroes the metrics registry; tracing stays on.
void ResetTrace();
void StopTracing();

/// One request in the layer-by-layer replay.
struct ReplayInput {
  std::string source;
  std::string query;
  termilog::AnalysisOptions options;
};

/// The verdict fields the correctness gate compares.
struct Verdict {
  bool ok = false;
  bool proved = false;
  bool resource_limited = false;
  bool operator==(const Verdict&) const = default;
};

Verdict VerdictOf(const termilog::BatchItemResult& item);

/// Replays the engine pipeline one layer call at a time at jobs=1:
/// ParseProgram -> PrepareStructure -> RunScc per inference-plan node
/// (results Set into the db) -> AnalyzeScc per recursive task. Every call
/// is wrapped in a bench.* span; canonical cache keys are computed (and
/// timed) exactly as the engine would. `limb_high_water` receives the
/// largest governor limb count seen.
std::vector<Verdict> ReplayLayers(const std::vector<ReplayInput>& inputs,
                                  int64_t* limb_high_water);

/// Inputs to the per-layer metric table beyond the two trace snapshots.
struct LayerInputs {
  /// Snapshot after the workload's own (engine/server) phase.
  TraceSnapshot engine;
  /// Snapshot after the replay (corpus_cold, gen_cold); else == engine.
  TraceSnapshot kernel;
  termilog::EngineStats engine_stats;
  double queue_wait_ms = 0;
  int64_t replay_limb_high_water = 0;
  termilog::persist::StoreStats store_stats;  // zero without a store
  double store_mb = 0;
  termilog::net::NetStats net_stats;  // zero outside serve_mixed
  /// Time in the serve reference's RunConditionsSweeps call.
  double condinf_sweep_ms = 0;
  int64_t condinf_evaluated = 0;
  int64_t condinf_implied = 0;
};

std::vector<std::pair<std::string, double>> LayerMetrics(
    const LayerInputs& in);

}  // namespace termibench

#endif  // TERMIBENCH_TERMIBENCH_H_
