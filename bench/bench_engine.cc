// E14 (--chaos [SEED]): robustness replay, the only mode of this binary
// (throughput and per-layer timing come from perfbench/; see
// EXPERIMENTS.md E11/E12 and scripts/record_bench.py). A generated
// all-provable workload runs repeatedly at jobs=4 on one engine while each
// round enables a seeded random failpoint spec (the TERMILOG_FAILPOINTS
// syntax, driven through FailpointRegistry::EnableFromSpec — the same
// parser the env var feeds). Asserted per round: no request errors (a
// forced trip must degrade along the governor ladder, never fail the
// run), and BatchEngine::SelfCheck passes for both caches (no abandoned
// single-flight slots, no retained starved or errored outcome). A final
// clean round must prove every request — a cached poisoned verdict would
// surface here. Emits one JSON object on stdout (recorded at
// BENCH_engine_chaos.json) and exits 1 when any round fails.
// Needs a TERMILOG_FAILPOINTS=ON build (the default).
//
// "store_rounds" replay persistent-store faults (docs/persistence.md).
// Each round builds a fresh store with a cold jobs=1 run (append order,
// hence file bytes, are deterministic), injures it — seeded bit flip,
// seeded truncation, or a kill-mid-write replay via the "persist.append"
// failpoint — then warm-restarts and asserts the recovery invariants: the
// corruption is *detected* (record quarantined, tail truncated, or file
// set aside), the warm run's report lines are byte-identical to the
// uninjured baseline (a bad store entry degrades to a cache miss, never to
// a wrong verdict), and zero request errors.

#include <cstdio>
#include <cstdlib>
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

constexpr int kSchemaVersion = 5;

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
  // Workers append as they compute, so a "persist.append" spec armed
  // around Run tears the appends of *this* run.
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
  if (engine.store() != nullptr) result.store_stats = engine.store()->stats();
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
    full_entries = warm.store_stats.records_loaded;
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
                    warm.store_stats.records_loaded < full_entries;
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
      StrCat("{\"bench\":\"engine_chaos\",\"meta\":{\"schema_version\":",
             kSchemaVersion, ",\"build_type\":\"",
             JsonEscape(TERMILOG_BUILD_TYPE), "\"}",
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
  uint64_t seed = 7;
  bool chaos = argc >= 2 && std::string(argv[1]) == "--chaos";
  if (chaos && argc == 3) {
    char* end = nullptr;
    seed = std::strtoull(argv[2], &end, 10);
    chaos = end != argv[2] && *end == '\0';
  }
  if (!chaos || argc > 3) {
    std::fprintf(stderr, "usage: bench_engine --chaos [SEED]\n");
    return 1;
  }
  return RunChaos(seed);
}
