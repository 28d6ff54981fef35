// E11: batch-engine throughput and cache effectiveness. Runs the full
// corpus through the parallel batch engine (docs/engine.md) at jobs =
// 1/2/4/8, cold cache and warm, and emits one machine-readable JSON
// object on stdout — the repo's BENCH_engine.json trajectory point.
//
// Schema v3 measures each (jobs, cold|warm) cell as the median of
// --repeats timed runs (cold on a fresh engine every repeat; warm on one
// engine after a discarded warm-up run) and reports the min alongside.
// Schema v2 took single samples, and on a corpus-sized workload the
// run-to-run noise exceeded the cold/warm gap — the seed trajectory point
// recorded warm (7913 ms) *slower* than cold (7522 ms) at jobs=1, which
// is physically backwards: a warm run does strictly less SCC solving.
// (The gap is small in the first place because per-request preparation —
// parsing is already done, but deep-copying, condensation, and the
// transform pipeline are not cached — dominates corpus wall time.)
//
// v3 also adds a "stress" section: a generated workload (src/gen) of
// --stress-requests mixed-verdict requests per jobs level, reporting
// saturation requests/s and the p50/p95/p99/max of per-request service
// latency (BatchItemResult::latency_us — prep start to last SCC task,
// excluding queue wait, so the distribution measures service time, not
// batch position).
//
// E12 (--phases): per-phase time shares for the paper's worked examples,
// measured with the span tracer (docs/observability.md). For each example
// the tracer is reset, the example runs alone through the engine at
// jobs=1, and the finished spans are aggregated by name; "share" is a
// phase's self time (its duration minus its children's) as a fraction of
// the request span. Needs a TERMILOG_OBS=ON build.
//
// E14 (--chaos [SEED]): robustness replay. A generated all-provable
// workload runs repeatedly at jobs=4 on one engine while each round
// enables a seeded random failpoint spec (the TERMILOG_FAILPOINTS
// syntax, driven through FailpointRegistry::EnableFromSpec — the same
// parser the env var feeds). Asserted per round: no request errors (a
// forced trip must degrade along the governor ladder, never fail the
// run), and BatchEngine::SelfCheck passes for both caches (no abandoned
// single-flight slots, no retained starved or errored outcome). A final
// clean round must prove every request — a cached poisoned verdict would
// surface here.
// Needs a TERMILOG_FAILPOINTS=ON build (the default).
//
// v3 chaos adds "store_rounds": persistent-store fault replay
// (docs/persistence.md). Each round builds a fresh store with a cold
// jobs=1 run (append order, hence file bytes, are deterministic), injures
// it — seeded bit flip, seeded truncation, or a kill-mid-write replay via
// the "persist.append" failpoint — then warm-restarts and asserts the
// recovery invariants: the corruption is *detected* (record quarantined,
// tail truncated, or file set aside), the warm run's report lines are
// byte-identical to the uninjured baseline (a bad store entry degrades to
// a cache miss, never to a wrong verdict), and zero request errors.
//
// Schema v4 follows the engine's parallel-inference refactor
// (docs/engine.md): throughput cells gain the inference-cache counters
// (inference_cache_hits / inference_cache_misses) and a "suspect" flag on
// any warm-slower-than-cold inversion (a warm run does strictly less
// work — inference and SCC solving are both cached — so an inversion
// means the measurement is noise-dominated and should not be trended).
// The stress section reports two distributions: latency_us is per-request
// service cost in thread-CPU microseconds (comparable across jobs levels
// even on fewer cores than workers), and e2e_us is the admission-to-
// completion wall interval that the scheduling-fairness fix (child tasks
// drain before new preparations) is accountable to.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "termilog/termilog.h"

#ifndef TERMILOG_BUILD_TYPE
#define TERMILOG_BUILD_TYPE "unspecified"
#endif

using namespace termilog;

namespace {

constexpr int kSchemaVersion = 4;
constexpr int kJobsLevels[] = {1, 2, 4, 8};

int g_repeats = 3;
int g_stress_requests = 10000;

std::vector<BatchRequest> CorpusRequests() {
  std::vector<BatchRequest> requests;
  for (const CorpusEntry& entry : Corpus()) {
    Program program = ParseProgram(entry.source).value();
    auto query = ParseQuerySpec(program, entry.query).value();
    BatchRequest request;
    request.name = entry.name;
    request.program = std::move(program);
    request.query = query.first;
    request.adornment = query.second;
    request.options.apply_transformations = entry.needs_transformations;
    request.options.allow_negative_deltas = entry.needs_negative_deltas;
    request.options.supplied_constraints = entry.supplied_constraints;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string MetaJson(size_t corpus_requests) {
  std::string jobs;
  for (int j : kJobsLevels) {
    if (!jobs.empty()) jobs += ',';
    jobs += std::to_string(j);
  }
  return StrCat("{\"schema_version\":", kSchemaVersion,
                ",\"build_type\":\"", JsonEscape(TERMILOG_BUILD_TYPE),
                "\",\"jobs\":[", jobs,
                "],\"corpus_requests\":", corpus_requests,
                ",\"repeats\":", g_repeats,
                ",\"stress_requests\":", g_stress_requests, "}");
}

struct RunSample {
  int64_t wall_ms = 0;      // median across repeats
  int64_t min_wall_ms = 0;  // best repeat
  int64_t scc_tasks = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t inference_cache_hits = 0;
  int64_t inference_cache_misses = 0;
};

int64_t MedianOf(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::string SampleJson(const RunSample& sample, size_t requests) {
  double seconds = static_cast<double>(sample.wall_ms) / 1000.0;
  double throughput =
      seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  double hit_rate =
      sample.scc_tasks > 0
          ? static_cast<double>(sample.cache_hits) /
                static_cast<double>(sample.scc_tasks)
          : 0.0;
  char buffer[448];
  std::snprintf(buffer, sizeof(buffer),
                "{\"wall_ms\":%lld,\"min_wall_ms\":%lld,\"scc_tasks\":%lld,"
                "\"cache_hits\":%lld,\"cache_misses\":%lld,"
                "\"inference_cache_hits\":%lld,"
                "\"inference_cache_misses\":%lld,"
                "\"requests_per_s\":%.2f,\"scc_hit_rate\":%.4f}",
                static_cast<long long>(sample.wall_ms),
                static_cast<long long>(sample.min_wall_ms),
                static_cast<long long>(sample.scc_tasks),
                static_cast<long long>(sample.cache_hits),
                static_cast<long long>(sample.cache_misses),
                static_cast<long long>(sample.inference_cache_hits),
                static_cast<long long>(sample.inference_cache_misses),
                throughput, hit_rate);
  return buffer;
}

// One (jobs) row of the corpus-throughput section. Cold: a fresh engine
// per repeat, so every repeat pays the full miss cost. Warm: one engine,
// one cold run to populate the cache, one *discarded* warm-up run (page
// the cache and thread pool in), then the timed repeats.
std::string ThroughputRow(int jobs, const std::vector<BatchRequest>& requests) {
  RunSample cold;
  {
    std::vector<int64_t> walls;
    for (int r = 0; r < g_repeats; ++r) {
      BatchEngine engine(EngineOptions{jobs, /*use_cache=*/true});
      engine.Run(requests);
      walls.push_back(engine.stats().wall_ms);
      if (r == 0) {
        cold.scc_tasks = engine.stats().scc_tasks;
        cold.cache_hits = engine.stats().cache_hits;
        cold.cache_misses = engine.stats().cache_misses;
        cold.inference_cache_hits = engine.stats().inference_cache_hits;
        cold.inference_cache_misses = engine.stats().inference_cache_misses;
      }
    }
    cold.wall_ms = MedianOf(walls);
    cold.min_wall_ms = *std::min_element(walls.begin(), walls.end());
  }

  RunSample warm;
  {
    BatchEngine engine(EngineOptions{jobs, /*use_cache=*/true});
    engine.Run(requests);  // populate the cache
    engine.Run(requests);  // warm-up, discarded
    std::vector<int64_t> walls;
    for (int r = 0; r < g_repeats; ++r) {
      EngineStats before = engine.stats();
      engine.Run(requests);
      walls.push_back(engine.stats().wall_ms);
      if (r == 0) {
        warm.scc_tasks = engine.stats().scc_tasks - before.scc_tasks;
        warm.cache_hits = engine.stats().cache_hits - before.cache_hits;
        warm.cache_misses = engine.stats().cache_misses - before.cache_misses;
        warm.inference_cache_hits =
            engine.stats().inference_cache_hits - before.inference_cache_hits;
        warm.inference_cache_misses = engine.stats().inference_cache_misses -
                                      before.inference_cache_misses;
      }
    }
    warm.wall_ms = MedianOf(walls);
    warm.min_wall_ms = *std::min_element(walls.begin(), walls.end());
  }

  // A warm run does strictly less work than a cold one (inference and SCC
  // solving both served from cache), so warm median > cold median can only
  // be measurement noise. Flag the row rather than silently recording a
  // physically backwards trajectory point.
  const bool suspect = warm.wall_ms > cold.wall_ms;
  return StrCat("{\"jobs\":", jobs,
                ",\"cold\":", SampleJson(cold, requests.size()),
                ",\"warm\":", SampleJson(warm, requests.size()),
                ",\"suspect\":", suspect ? "true" : "false", "}");
}

// Mixed-verdict generated workload for the stress section: unique
// programs (dup=0), so the cache cannot shortcut the work and the row
// measures saturation throughput of *distinct* requests.
gen::GenParams StressParams() {
  gen::GenParams params;
  params.seed = 2026;
  params.count = g_stress_requests;
  params.min_sccs = 1;
  params.max_sccs = 3;
  params.min_scc_size = 1;
  params.max_scc_size = 3;
  params.mix_proved = 70;
  params.mix_not_proved = 25;
  params.mix_resource_limit = 5;
  params.name_prefix = "stress";
  return params;
}

std::string StressRow(int jobs, const std::vector<BatchRequest>& requests) {
  BatchEngine engine(EngineOptions{jobs, /*use_cache=*/true});
  std::vector<BatchItemResult> results = engine.Run(requests);
  std::vector<int64_t> latencies;
  std::vector<int64_t> e2e;
  latencies.reserve(results.size());
  e2e.reserve(results.size());
  int64_t proved = 0, limited = 0, errors = 0;
  for (const BatchItemResult& item : results) {
    latencies.push_back(item.latency_us);
    e2e.push_back(item.e2e_us);
    if (!item.status.ok()) {
      ++errors;
    } else if (item.report.resource_limited) {
      ++limited;
    } else if (item.report.proved) {
      ++proved;
    }
  }
  gen::LatencySummary latency = gen::SummarizeLatencies(std::move(latencies));
  gen::LatencySummary e2e_summary = gen::SummarizeLatencies(std::move(e2e));
  int64_t wall_ms = engine.stats().wall_ms;
  double seconds = static_cast<double>(wall_ms) / 1000.0;
  double throughput =
      seconds > 0 ? static_cast<double>(requests.size()) / seconds : 0.0;
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"jobs\":%d,\"requests\":%zu,\"wall_ms\":%lld,"
      "\"requests_per_s\":%.1f,\"proved\":%lld,\"resource_limited\":%lld,"
      "\"errors\":%lld,\"latency_us\":{\"p50\":%lld,\"p95\":%lld,"
      "\"p99\":%lld,\"max\":%lld},\"e2e_us\":{\"p50\":%lld,\"p95\":%lld,"
      "\"p99\":%lld,\"max\":%lld}}",
      jobs, requests.size(), static_cast<long long>(wall_ms), throughput,
      static_cast<long long>(proved), static_cast<long long>(limited),
      static_cast<long long>(errors), static_cast<long long>(latency.p50_us),
      static_cast<long long>(latency.p95_us),
      static_cast<long long>(latency.p99_us),
      static_cast<long long>(latency.max_us),
      static_cast<long long>(e2e_summary.p50_us),
      static_cast<long long>(e2e_summary.p95_us),
      static_cast<long long>(e2e_summary.p99_us),
      static_cast<long long>(e2e_summary.max_us));
  return buffer;
}

int RunThroughput() {
  std::vector<BatchRequest> corpus = CorpusRequests();

  std::string out = StrCat("{\"bench\":\"engine\",\"meta\":",
                           MetaJson(corpus.size()), ",\"runs\":[");
  bool first = true;
  for (int jobs : kJobsLevels) {
    if (!first) out += ',';
    first = false;
    out += ThroughputRow(jobs, corpus);
  }
  out += "],\"stress\":{\"spec\":\"";

  gen::GenParams params = StressParams();
  out += JsonEscape(gen::GenSpecToString(params));
  out += "\",\"rows\":[";
  gen::GeneratedWorkload workload = gen::Generate(params);
  std::vector<BatchRequest> requests =
      gen::WorkloadToBatchRequests(workload).value();
  first = true;
  for (int jobs : kJobsLevels) {
    if (!first) out += ',';
    first = false;
    out += StressRow(jobs, requests);
  }
  out += "]}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// The paper's four worked examples (Ex 3.1/4.1, Ex 5.1, Ex 6.1, A.1).
constexpr const char* kPhaseExamples[] = {"perm", "merge", "expr_parser",
                                          "example_a1"};

int RunPhases() {
  if (!obs::kCompiledIn) {
    std::fprintf(stderr,
                 "bench_engine: --phases needs a TERMILOG_OBS=ON build\n");
    return 1;
  }
  std::vector<BatchRequest> all = CorpusRequests();
  std::string out = StrCat("{\"bench\":\"engine_phases\",\"meta\":",
                           MetaJson(all.size()), ",\"examples\":[");
  bool first_example = true;
  for (const char* name : kPhaseExamples) {
    const BatchRequest* request = nullptr;
    for (const BatchRequest& candidate : all) {
      if (candidate.name == name) {
        request = &candidate;
        break;
      }
    }
    if (request == nullptr) {
      std::fprintf(stderr, "bench_engine: corpus entry %s not found\n", name);
      return 1;
    }
    // Fresh engine and fresh trace per example: no cache warm-up, no spans
    // bleeding across examples. jobs=1 keeps self-times additive.
    obs::Tracer::Global().Enable();
    {
      BatchEngine engine(EngineOptions{/*jobs=*/1, /*use_cache=*/false});
      std::vector<BatchRequest> one;
      one.push_back(*request);
      engine.Run(one);
    }
    obs::Tracer::Global().Disable();
    auto aggregate = obs::Tracer::Global().AggregateByName();
    auto request_it = aggregate.find("request");
    int64_t request_us =
        request_it == aggregate.end() ? 0 : request_it->second.total_us;

    if (!first_example) out += ',';
    first_example = false;
    out += StrCat("{\"name\":\"", JsonEscape(name),
                  "\",\"request_us\":", request_us, ",\"phases\":{");
    bool first_phase = true;
    for (const auto& [phase, agg] : aggregate) {
      double share =
          request_us > 0
              ? static_cast<double>(agg.self_us) /
                    static_cast<double>(request_us)
              : 0.0;
      char share_text[32];
      std::snprintf(share_text, sizeof(share_text), "%.4f", share);
      if (!first_phase) out += ',';
      first_phase = false;
      out += StrCat("\"", JsonEscape(phase), "\":{\"count\":", agg.count,
                    ",\"total_us\":", agg.total_us,
                    ",\"self_us\":", agg.self_us, ",\"share\":", share_text,
                    "}");
    }
    out += "}}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// Every failpoint site in the library (grep TERMILOG_FAILPOINT under
// src/). A chaos round draws a subset of these.
constexpr const char* kChaosSites[] = {
    "analyzer.scc",   "dual.build",         "fm.eliminate",
    "inference.run",  "inference.sweep",    "interp.bottom_up",
    "lp.pivot",       "sld.step",           "transform.phase",
    "transform.pipeline", "transform.unfold"};
constexpr int kChaosSiteCount =
    static_cast<int>(sizeof(kChaosSites) / sizeof(kChaosSites[0]));

// Builds a seeded TERMILOG_FAILPOINTS spec ("a=3,b") for one round: one
// to three distinct sites, each failing either the first 1..64 hits or
// every hit.
std::string ChaosSpec(gen::Rng& rng) {
  int count = rng.NextInt(1, 3);
  std::vector<int> picked;
  while (static_cast<int>(picked.size()) < count) {
    int site = rng.NextInt(0, kChaosSiteCount - 1);
    bool seen = false;
    for (int p : picked) seen = seen || p == site;
    if (!seen) picked.push_back(site);
  }
  std::string spec;
  for (int site : picked) {
    if (!spec.empty()) spec += ',';
    spec += kChaosSites[site];
    if (rng.Chance(75)) {
      spec += '=';
      spec += std::to_string(rng.NextInt(1, 64));
    }
  }
  return spec;
}

// One jobs=1 run over `requests` on a fresh engine, optionally attached
// to the store at `store_path` and optionally under a failpoint spec.
// jobs=1 makes the append order — and therefore the store's bytes —
// deterministic, so seeded injuries hit reproducible offsets. Returns
// the per-request report lines (the byte-identity surface; stats never
// appear in them) plus the store's recovery/append counters.
struct StoreRunResult {
  std::vector<std::string> lines;
  int64_t proved = 0;
  int64_t errors = 0;
  int64_t persisted_loaded = 0;
  int64_t persisted_hits = 0;
  persist::StoreStats store_stats;
  int64_t store_entries = 0;
  bool attach_ok = true;
};

StoreRunResult RunWithStore(const std::vector<BatchRequest>& requests,
                            const std::string& store_path,
                            const std::string& failpoint_spec) {
  StoreRunResult result;
  BatchEngine engine(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  if (!store_path.empty()) {
    Result<std::unique_ptr<persist::PersistentStore>> store =
        persist::PersistentStore::Open(store_path);
    if (!store.ok()) {
      result.attach_ok = false;
      return result;
    }
    if (!engine.AttachStore(std::move(*store)).ok()) {
      result.attach_ok = false;
      return result;
    }
  }
  if (!failpoint_spec.empty()) {
    FailpointRegistry::Global().EnableFromSpec(failpoint_spec);
  }
  std::vector<BatchItemResult> results = engine.Run(requests);
  // Drain the write-behind queue while the failpoint is still armed, so
  // a "persist.append" spec tears the appends of *this* run.
  (void)engine.FlushStore();
  if (!failpoint_spec.empty()) FailpointRegistry::Global().Clear();
  for (const BatchItemResult& item : results) {
    result.lines.push_back(
        ReportToJsonLine(item.name, "", item.status, item.report));
    if (!item.status.ok()) {
      ++result.errors;
    } else if (item.report.proved) {
      ++result.proved;
    }
  }
  result.persisted_loaded = engine.stats().persisted_loaded;
  result.persisted_hits = engine.stats().persisted_hits;
  if (engine.store() != nullptr) {
    result.store_stats = engine.store()->stats();
    result.store_entries = engine.store()->size();
  }
  return result;
}

void RemoveStoreFiles(const std::string& store_path) {
  std::error_code ec;
  std::filesystem::remove(store_path, ec);
  std::filesystem::remove(store_path + ".quarantined", ec);
  std::filesystem::remove(store_path + ".tmp", ec);
}

bool FlipStoreByte(const std::string& store_path, int64_t offset) {
  std::fstream file(store_path,
                    std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return false;
  file.seekg(offset);
  char byte = 0;
  if (!file.get(byte)) return false;
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(offset);
  file.put(byte);
  return static_cast<bool>(file);
}

// Store-fault replay (the "store_rounds" section). `baseline` is the
// uninjured run's report lines; every injured round must reproduce them
// byte for byte.
std::string StoreChaosRounds(const std::vector<BatchRequest>& requests,
                             gen::Rng& rng, bool* failed) {
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "termilog_bench_chaos.store")
          .string();

  auto round_json = [](const char* name, const StoreRunResult& warm,
                       bool detected, bool verdicts_ok, bool ok) {
    return StrCat("{\"fault\":\"", name, "\",\"proved\":", warm.proved,
                  ",\"errors\":", warm.errors,
                  ",\"persisted_loaded\":", warm.persisted_loaded,
                  ",\"persisted_hits\":", warm.persisted_hits,
                  ",\"records_quarantined\":",
                  warm.store_stats.records_quarantined,
                  ",\"tail_bytes_truncated\":",
                  warm.store_stats.tail_bytes_truncated,
                  ",\"file_quarantined\":",
                  warm.store_stats.file_quarantined ? "true" : "false",
                  ",\"fault_detected\":", detected ? "true" : "false",
                  ",\"verdicts_identical\":", verdicts_ok ? "true" : "false",
                  ",\"ok\":", ok ? "true" : "false", "}");
  };

  // Baseline: the same requests, same jobs=1 engine shape, no store.
  // Verdicts are deterministic, so every store round must reproduce
  // exactly these lines.
  StoreRunResult baseline = RunWithStore(requests, "", "");

  std::string out;

  // Round 1 — roundtrip: cold run populates the store, warm restart must
  // serve recovered entries (nonzero persisted hits) with identical
  // reports.
  int64_t full_entries = 0;
  {
    RemoveStoreFiles(store_path);
    StoreRunResult cold = RunWithStore(requests, store_path, "");
    StoreRunResult warm = RunWithStore(requests, store_path, "");
    full_entries = warm.store_entries;
    bool verdicts_ok =
        cold.lines == baseline.lines && warm.lines == baseline.lines;
    bool ok = cold.attach_ok && warm.attach_ok && verdicts_ok &&
              warm.errors == 0 && cold.store_stats.appends > 0 &&
              warm.persisted_loaded > 0 && warm.persisted_hits > 0 &&
              warm.store_stats.records_quarantined == 0;
    *failed = *failed || !ok;
    out += round_json("none", warm, /*detected=*/true, verdicts_ok, ok);
  }

  // Round 2 — seeded bit flip. Wherever it lands (header, frame length,
  // CRC, payload), recovery must *notice* — quarantined record, truncated
  // tail, or file set aside — and the warm run must still be exact.
  {
    RemoveStoreFiles(store_path);
    StoreRunResult cold = RunWithStore(requests, store_path, "");
    int64_t size = static_cast<int64_t>(
        std::filesystem::file_size(store_path));
    int64_t offset = rng.NextInt(0, static_cast<int>(size - 1));
    bool flipped = FlipStoreByte(store_path, offset);
    StoreRunResult warm = RunWithStore(requests, store_path, "");
    bool detected = warm.store_stats.records_quarantined > 0 ||
                    warm.store_stats.tail_bytes_truncated > 0 ||
                    warm.store_stats.file_quarantined;
    bool verdicts_ok = warm.lines == baseline.lines;
    bool ok = cold.attach_ok && warm.attach_ok && flipped && detected &&
              verdicts_ok && warm.errors == 0;
    *failed = *failed || !ok;
    out += ',';
    out += round_json("bit_flip", warm, detected, verdicts_ok, ok);
  }

  // Round 3 — seeded truncation (crash between appends, or a filesystem
  // that lost the tail). The surviving prefix loads; the rest degrades to
  // cache misses.
  {
    RemoveStoreFiles(store_path);
    StoreRunResult cold = RunWithStore(requests, store_path, "");
    int64_t size = static_cast<int64_t>(
        std::filesystem::file_size(store_path));
    int64_t cut = rng.NextInt(17, static_cast<int>(size - 1));
    std::filesystem::resize_file(store_path, cut);
    StoreRunResult warm = RunWithStore(requests, store_path, "");
    bool detected = warm.store_stats.tail_bytes_truncated > 0 ||
                    warm.persisted_loaded < full_entries;
    bool verdicts_ok = warm.lines == baseline.lines;
    bool ok = cold.attach_ok && warm.attach_ok && detected && verdicts_ok &&
              warm.errors == 0;
    *failed = *failed || !ok;
    out += ',';
    out += round_json("truncate", warm, detected, verdicts_ok, ok);
  }

  // Round 4 — kill mid-write, replayed with the "persist.append"
  // failpoint: the first append writes half a frame and the handle goes
  // broken, exactly a kill -9 between the bytes of a write. Reopen must
  // truncate the torn tail and the run must not miss a beat.
  {
    RemoveStoreFiles(store_path);
    StoreRunResult torn = RunWithStore(requests, store_path,
                                       "persist.append");
    StoreRunResult warm = RunWithStore(requests, store_path, "");
    bool detected = warm.store_stats.tail_bytes_truncated > 0;
    bool verdicts_ok =
        torn.lines == baseline.lines && warm.lines == baseline.lines;
    bool ok = torn.attach_ok && warm.attach_ok && detected && verdicts_ok &&
              torn.errors == 0 && warm.errors == 0;
    *failed = *failed || !ok;
    out += ',';
    out += round_json("torn_write", warm, detected, verdicts_ok, ok);
  }

  RemoveStoreFiles(store_path);
  return out;
}

int RunChaos(uint64_t seed) {
  constexpr int kRounds = 8;
  constexpr int kChaosJobs = 4;

  // All-provable workload with unlimited budgets: every RESOURCE_LIMIT or
  // NOT_PROVED outcome below is *caused by an injected fault*, and the
  // final clean round must prove everything or the engine retained
  // poisoned state.
  gen::GenParams params;
  params.seed = seed;
  params.count = 200;
  params.mix_proved = 100;
  params.mix_not_proved = 0;
  params.mix_resource_limit = 0;
  params.name_prefix = "chaos";
  gen::GeneratedWorkload workload = gen::Generate(params);
  std::vector<BatchRequest> requests =
      gen::WorkloadToBatchRequests(workload).value();

  BatchEngine engine(EngineOptions{kChaosJobs, /*use_cache=*/true});
  gen::Rng rng = gen::Rng::Stream(seed, /*stream=*/0xC4A05ULL);

  std::string out =
      StrCat("{\"bench\":\"engine_chaos\",\"meta\":", MetaJson(0),
             ",\"seed\":", seed, ",\"jobs\":", kChaosJobs,
             ",\"requests_per_round\":", requests.size(), ",\"rounds\":[");
  bool failed = false;
  for (int round = 0; round < kRounds; ++round) {
    std::string spec = ChaosSpec(rng);
    FailpointRegistry::Global().EnableFromSpec(spec);
    std::vector<BatchItemResult> results = engine.Run(requests);
    FailpointRegistry::Global().Clear();

    int64_t proved = 0, limited = 0, not_proved = 0, errors = 0;
    for (const BatchItemResult& item : results) {
      if (!item.status.ok()) {
        ++errors;
      } else if (item.report.resource_limited) {
        ++limited;
      } else if (item.report.proved) {
        ++proved;
      } else {
        ++not_proved;
      }
    }
    Status cache_check = engine.SelfCheck();
    bool round_ok = errors == 0 && cache_check.ok();
    failed = failed || !round_ok;

    if (round > 0) out += ',';
    out += StrCat("{\"spec\":\"", JsonEscape(spec), "\",\"proved\":", proved,
                  ",\"resource_limited\":", limited,
                  ",\"not_proved\":", not_proved, ",\"errors\":", errors,
                  ",\"cache_self_check\":\"",
                  cache_check.ok() ? "ok" : JsonEscape(cache_check.ToString()),
                  "\",\"ok\":", round_ok ? "true" : "false", "}");
  }

  // Store-fault replay: build, injure, recover (see the header comment).
  out += "],\"store_rounds\":[";
  out += StoreChaosRounds(requests, rng, &failed);

  // Clean verification round: no failpoints. Every request must prove —
  // an injected RESOURCE_LIMIT verdict that leaked into the cache, or an
  // abandoned single-flight slot, would break this.
  std::vector<BatchItemResult> clean = engine.Run(requests);
  int64_t clean_proved = 0;
  for (const BatchItemResult& item : clean) {
    if (item.status.ok() && item.report.proved) ++clean_proved;
  }
  Status final_check = engine.SelfCheck();
  bool clean_ok = clean_proved == static_cast<int64_t>(clean.size()) &&
                  final_check.ok();
  failed = failed || !clean_ok;

  out += StrCat("],\"clean_round\":{\"proved\":", clean_proved,
                ",\"requests\":", clean.size(), ",\"cache_self_check\":\"",
                final_check.ok() ? "ok" : JsonEscape(final_check.ToString()),
                "\",\"ok\":", clean_ok ? "true" : "false",
                "},\"ok\":", failed ? "false" : "true", "}");
  std::printf("%s\n", out.c_str());
  if (failed) {
    std::fprintf(stderr, "bench_engine: chaos run FAILED (see JSON)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool phases = false, chaos = false;
  uint64_t chaos_seed = 7;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--phases") {
      phases = true;
    } else if (arg == "--chaos") {
      chaos = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        chaos_seed = std::strtoull(argv[++i], nullptr, 10);
      }
    } else if (arg == "--repeats" && i + 1 < argc) {
      g_repeats = std::atoi(argv[++i]);
      if (g_repeats < 1) g_repeats = 1;
    } else if (arg == "--stress-requests" && i + 1 < argc) {
      g_stress_requests = std::atoi(argv[++i]);
      if (g_stress_requests < 1) g_stress_requests = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine [--phases | --chaos [SEED]] "
                   "[--repeats N] [--stress-requests N]\n");
      return 1;
    }
  }
  if (phases) return RunPhases();
  if (chaos) return RunChaos(chaos_seed);
  return RunThroughput();
}
