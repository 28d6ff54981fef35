#ifndef TERMILOG_ENGINE_ENGINE_H_
#define TERMILOG_ENGINE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "engine/cached_outcomes.h"
#include "engine/content_cache.h"
#include "program/ast.h"
#include "util/status.h"

namespace termilog {

namespace persist {
class PersistentStore;
}  // namespace persist

/// One unit of batch work: analyze `query` (with `adornment`) over
/// `program` under `options`. The engine deep-copies the program (fresh
/// symbol table) before any analysis, so many requests may share one
/// Program — and one symbol table — safely.
struct BatchRequest {
  /// Display identity carried through to the result (file name, corpus
  /// entry, "pred adornment", ...).
  std::string name;
  Program program;
  PredId query;
  Adornment adornment;
  AnalysisOptions options;
};

/// Result of one request, in request order.
struct BatchItemResult {
  std::string name;
  /// Non-OK when preparation failed (bad query, unsupported construct);
  /// `report` is then empty. Per-SCC resource trips are not errors — they
  /// degrade inside the report to RESOURCE_LIMIT verdicts.
  Status status = Status::Ok();
  TerminationReport report;
  /// Recursive SCC tasks this request contributed, and how many of them
  /// were served from the content cache. Scheduling-dependent under
  /// concurrency (whichever request reaches a shared SCC first pays the
  /// miss), so these are accounting, not part of the deterministic report.
  int64_t scc_tasks = 0;
  int64_t cache_hits = 0;
  /// Same accounting for the request's inference tasks (one per SCC of the
  /// inter-argument inference plan).
  int64_t inference_tasks = 0;
  int64_t inference_cache_hits = 0;
  /// Service cost: thread-CPU microseconds (CLOCK_THREAD_CPUTIME_ID) spent
  /// on this request — its preparation plus each of its inference and SCC
  /// tasks. CPU time rather than a wall interval so the figure measures
  /// the work the request cost, not how oversubscribed the machine was
  /// (on a single core, wall-interval task times inflate roughly jobs-
  /// fold); it therefore excludes time blocked in single-flight waits.
  /// Accounting only, never part of the deterministic report bytes.
  int64_t latency_us = 0;
  /// Admission-to-completion wall microseconds: from the moment a worker
  /// picked up the request's preparation to the completion of its last
  /// task. With fair scheduling (a request's inference/SCC tasks run
  /// before later requests are admitted) this stays close to the service
  /// cost; under the old all-preparations-first order it approached the
  /// whole run's wall time for every request.
  int64_t e2e_us = 0;
};

/// Aggregate counters across every request of one engine, whether it came
/// through Run or Submit.
struct EngineStats {
  int64_t requests = 0;
  /// Recursive SCC tasks routed through the cache.
  int64_t scc_tasks = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t single_flight_waits = 0;
  /// Completed entries retained in the cache.
  int64_t unique_sccs = 0;
  /// Entries warm-started from an attached persistent store, and the
  /// cache hits those recovered entries served (docs/persistence.md).
  int64_t persisted_loaded = 0;
  int64_t persisted_hits = 0;
  /// Inter-argument inference tasks routed through the inference cache,
  /// and the same counter family as above for that cache.
  int64_t inference_tasks = 0;
  int64_t inference_cache_hits = 0;
  int64_t inference_cache_misses = 0;
  int64_t inference_single_flight_waits = 0;
  int64_t unique_inference_sccs = 0;
  int64_t inference_persisted_loaded = 0;
  int64_t inference_persisted_hits = 0;
  /// Summed governor work ticks across all per-task governors.
  int64_t total_work = 0;
  /// Wall time of the most recent Run only (overwritten each Run); see
  /// total_wall_ms for the engine-lifetime figure. Submit alone leaves
  /// both at 0.
  int64_t wall_ms = 0;
  /// Wall time summed across every Run of this engine.
  int64_t total_wall_ms = 0;

  std::string ToString() const;
};

struct EngineOptions {
  /// Worker threads. Clamped to >= 1. Output is byte-identical for every
  /// value (see docs/engine.md for the determinism argument).
  int jobs = 1;
  /// Content-addressed SCC memoization (on by default; off forces every
  /// task to compute).
  bool use_cache = true;
};

/// Parallel batch-analysis engine: expands each request into its analysis
/// preparation, one task per SCC of the inter-argument inference plan
/// (scheduled bottom-up over the condensation DAG as dependencies
/// complete), and one task per recursive SCC of the dependency-graph
/// condensation; schedules the tasks onto a fixed-size worker pool; and
/// memoizes both inference and SCC outcomes in content-addressed caches
/// (CanonicalInferenceKey / CanonicalSccKey) so identical SCCs across
/// requests — repeated corpus entries, declared modes, re-submitted
/// programs — are solved once. Every task runs under its own
/// ResourceGovernor built from the request's limits.
///
/// The pool lives as long as the engine: the constructor starts `jobs`
/// workers and the destructor joins them. Submit is the one way work
/// enters it; Run is Submit for every request plus an in-order merge. The
/// caches persist across calls, so a second Run over the same requests is
/// served warm.
class BatchEngine {
 public:
  explicit BatchEngine(EngineOptions options = EngineOptions());
  /// Waits for every submitted request to complete and joins the
  /// workers; the store, if attached, is flushed and closed after them.
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Attaches a durable store (docs/persistence.md): every recovered
  /// entry moves into the cache of its kind, so the store keeps no copy
  /// (each already passed the store's per-record CRC and decode
  /// validation; Preload re-screens it), both caches are audited with
  /// SelfCheck, and the worker that computes a new outcome of either kind
  /// appends it to the store. A SelfCheck failure is returned (the CLI
  /// maps it to exit code 5) and the store stays detached. Call before
  /// the first Submit or Run.
  Status AttachStore(std::unique_ptr<persist::PersistentStore> store);

  /// Flushes and fsyncs the store; non-OK once a failed append has broken
  /// its handle. OK and a no-op when no store is attached — shutdown
  /// flushes implicitly, this is the explicit durability point for
  /// long-running serve mode.
  Status FlushStore();

  /// The attached store (null when none). The engine owns it.
  persist::PersistentStore* store() { return store_.get(); }

  /// Queues one request and returns at once. Thread-safe. The program is
  /// deep-copied before Submit returns, so `request` may be destroyed
  /// right after. `on_done` runs exactly once, on a worker thread, with
  /// the request's result; the request's trace span nests under the
  /// span current on the calling thread. `on_done` must not block on this
  /// engine — a Run inside it waits for workers that are busy running it
  /// (at jobs=1, forever) — but it may Submit more work.
  void Submit(const BatchRequest& request,
              std::function<void(BatchItemResult)> on_done);

  /// Runs every request to completion; results are returned in request
  /// order. `on_result` (optional) is invoked in request order, on the
  /// calling thread, as results become available — with jobs > 1 a
  /// completed request may wait for an earlier one so the stream stays
  /// ordered and deterministic. Must not be called from an `on_done`.
  std::vector<BatchItemResult> Run(
      const std::vector<BatchRequest>& requests,
      const std::function<void(const BatchItemResult&)>& on_result = nullptr);

  /// Audits both caches with ContentCache::SelfCheck and returns the
  /// first violation. Meaningful with no task in flight.
  Status SelfCheck() const;

  const EngineOptions& options() const { return options_; }
  /// A snapshot; workers keep counting while requests are in flight.
  EngineStats stats() const;

 private:
  class TaskQueue;
  struct RequestState;
  using StatePtr = std::shared_ptr<RequestState>;

  // The stages of one request, each run as a pool task (docs/engine.md,
  // task graph). Complete assembles the result and calls on_done.
  void Prepare(const StatePtr& state);
  void RunInferenceTask(const StatePtr& state, int k);
  void FinishInference(const StatePtr& state);
  void ScheduleSccs(const StatePtr& state);
  void RunSccTask(const StatePtr& state, size_t j);
  void Complete(const StatePtr& state);

  EngineOptions options_;
  ContentCache<CachedSccOutcome> cache_;
  ContentCache<CachedInferenceOutcome> inference_cache_;
  // Guards stats_ (whose cache fields stay zero: stats() reads the caches)
  // and in_flight_ (submitted requests whose on_done has not returned).
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  EngineStats stats_;
  int64_t in_flight_ = 0;
  // Workers append to the store; the destructor joins them before the
  // store closes.
  std::unique_ptr<persist::PersistentStore> store_;
  std::unique_ptr<TaskQueue> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace termilog

#endif  // TERMILOG_ENGINE_ENGINE_H_
