#include "engine/engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "engine/canonical.h"
#include "obs/obs.h"
#include "persist/store.h"
#include "persist/writer.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {
namespace {

// Private copy of a request's program with a fresh symbol table. Requests
// routinely share one Program (declared modes, repeated submissions), but
// preparation mutates the symbol table (adornment cloning, supplied
// constraints, transformations intern new names), so each request must own
// its table. Symbol ids are preserved by the copy, keeping the request's
// PredIds valid; term structure is immutable and stays shared.
Program PrivateCopy(const Program& program) {
  Program copy(std::make_shared<SymbolTable>(program.symbols()));
  for (const Rule& rule : program.rules()) copy.AddRule(rule);
  for (const ModeDecl& decl : program.mode_decls()) copy.AddModeDecl(decl);
  return copy;
}

// CPU time of the calling thread, the unit of the engine's service-cost
// accounting (BatchItemResult::latency_us): unlike a wall interval it does
// not inflate when more workers than cores run concurrently.
int64_t ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 +
         static_cast<int64_t>(ts.tv_nsec) / 1000;
}

}  // namespace

// Queue feeding the worker pool, with two priority classes. Child tasks
// (the inference and SCC tasks a request's preparation spawned) are
// drained before preparation tasks, so the task chains of admitted
// requests finish before new requests are admitted. Within a class the
// order is FIFO. This is the scheduling-fairness fix: with a single FIFO
// the batch ran every preparation first and every request's final task
// landed at the very end of the run, inflating admission-to-completion
// latency to the batch's wall time. Close() lets workers drain the
// remaining tasks and then exit.
class BatchEngine::TaskQueue {
 public:
  void Push(std::function<void()> task) { PushClass(&preps_, std::move(task)); }

  void PushChild(std::function<void()> task) {
    PushClass(&children_, std::move(task));
  }

  std::optional<std::function<void()>> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return closed_ || !children_.empty() || !preps_.empty();
    });
    std::deque<std::function<void()>>* source =
        !children_.empty() ? &children_ : &preps_;
    if (source->empty()) return std::nullopt;
    std::function<void()> task = std::move(source->front());
    source->pop_front();
    return task;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  void PushClass(std::deque<std::function<void()>>* tasks,
                 std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      TERMILOG_CHECK_MSG(!closed_, "task pushed after queue close");
      tasks->push_back(std::move(task));
    }
    cv_.notify_one();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> children_;
  std::deque<std::function<void()>> preps_;
  bool closed_ = false;
};

// Mutable per-request state shared between the prep task, the inference
// tasks and the SCC tasks. Every task holds a reference, so the state
// lives until the last of them returns.
struct BatchEngine::RequestState {
  // The request's own copy, made by Submit with the program through
  // PrivateCopy (stable once prep finishes), so the caller's BatchRequest
  // may die at once.
  BatchRequest request;
  std::function<void(BatchItemResult)> on_done;
  std::unique_ptr<TerminationAnalyzer> analyzer;

  // Placeholder until the prep task runs (Result forbids an OK status
  // without a value).
  Result<PreparedAnalysis> prepared =
      Status::Internal("request not yet prepared");
  std::vector<SccReport> slots;  // one per SccTask, condensation order

  // Inference-plan scheduling state, set up by the prep task. db_mu
  // guards report.arg_sizes (the store every inference task snapshots
  // callee polyhedra from and applies its entries to), deps_left, and the
  // per-node warning/error slots. Readiness propagates along the
  // condensation DAG: a node is pushed when its last dependency's task
  // decrements deps_left to zero.
  std::mutex db_mu;
  std::vector<int> deps_left;              // per plan node
  std::vector<std::vector<int>> dependents;  // reverse dependency edges
  std::vector<std::string> inference_warnings;  // per node; "" = none
  std::vector<Status> inference_errors;         // per node; OK = none
  std::atomic<int> pending_inference{0};

  std::atomic<int> pending_sccs{0};
  std::atomic<int64_t> work{0};
  std::atomic<int64_t> limb_high_water{0};
  std::atomic<int64_t> scc_tasks{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> inference_tasks{0};
  std::atomic<int64_t> inference_hits{0};
  /// Thread-CPU microseconds spent on this request: its preparation plus
  /// each of its inference and SCC tasks. Time blocked in single-flight
  /// waits or in the queue does not accrue CPU, so over a large batch the
  /// distribution measures per-request service cost, not batch position
  /// or core oversubscription.
  std::atomic<int64_t> busy_us{0};
  // Set by the prep task; read by Complete, which runs after every task
  // of the request (the queue mutex and the pending countdowns order it).
  std::chrono::steady_clock::time_point started;
  // Per-request trace span: begun by the prep task under the submitter's
  // span, ended by Complete; inference and SCC tasks attach to it
  // explicitly.
  obs::SpanId parent_span = 0;
  obs::SpanId span = 0;

  void AddSpend(const GovernorSpend& spend) {
    // Mirror the spend into the metrics registry so metrics totals
    // reconcile with EngineStats::total_work (every per-task governor
    // passes through here exactly once).
    TERMILOG_COUNTER("governor.work", spend.work);
    TERMILOG_HISTOGRAM("governor.limb_high_water",
                       spend.bigint_limb_high_water);
    work.fetch_add(spend.work, std::memory_order_relaxed);
    int64_t seen = limb_high_water.load(std::memory_order_relaxed);
    while (spend.bigint_limb_high_water > seen &&
           !limb_high_water.compare_exchange_weak(
               seen, spend.bigint_limb_high_water,
               std::memory_order_relaxed)) {
    }
  }
};

std::string EngineStats::ToString() const {
  return StrCat("requests=", requests, " scc_tasks=", scc_tasks,
                " cache_hits=", cache_hits, " cache_misses=", cache_misses,
                " single_flight_waits=", single_flight_waits,
                " unique_sccs=", unique_sccs,
                " persisted_loaded=", persisted_loaded,
                " persisted_hits=", persisted_hits,
                " inference_tasks=", inference_tasks,
                " inference_cache_hits=", inference_cache_hits,
                " inference_cache_misses=", inference_cache_misses,
                " inference_single_flight_waits=", inference_single_flight_waits,
                " unique_inference_sccs=", unique_inference_sccs,
                " inference_persisted_loaded=", inference_persisted_loaded,
                " inference_persisted_hits=", inference_persisted_hits,
                " total_work=", total_work,
                " wall_ms=", wall_ms, " total_wall_ms=", total_wall_ms);
}

BatchEngine::BatchEngine(EngineOptions options) : options_(options) {
  if (options_.jobs < 1) options_.jobs = 1;
  queue_ = std::make_unique<TaskQueue>();
  workers_.reserve(static_cast<size_t>(options_.jobs));
  try {
    for (int w = 0; w < options_.jobs; ++w) {
      workers_.emplace_back([this] {
        while (std::optional<std::function<void()>> task = queue_->Pop()) {
          (*task)();
        }
      });
    }
  } catch (...) {
    // Thread creation failed (e.g. a --jobs beyond the system's limit):
    // the workers already started must be joined before they are
    // destroyed.
    queue_->Close();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

BatchEngine::~BatchEngine() {
  // A finishing request's on_done may submit follow-up work (a sweep's
  // next round), so the queue closes only once nothing is in flight.
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  queue_->Close();
  for (std::thread& worker : workers_) worker.join();
}

Status BatchEngine::AttachStore(
    std::unique_ptr<persist::PersistentStore> store) {
  TERMILOG_CHECK_MSG(store != nullptr, "AttachStore wants a store");
  TERMILOG_CHECK_MSG(store_ == nullptr, "a store is already attached");
  for (const auto& [key, outcome] : store->entries<CachedSccOutcome>()) {
    cache_.Preload(key, outcome);
  }
  for (const auto& [key, outcome] :
       store->entries<CachedInferenceOutcome>()) {
    inference_cache_.Preload(key, outcome);
  }
  // Automatic post-warm-start audit (docs/persistence.md): a store whose
  // recovered entries do not form structurally sound caches must not be
  // served from. Preload screens each record, so in practice this only
  // fires on an engine bug — but the check is cheap and the alternative
  // is silently wrong verdicts.
  Status audit = SelfCheck();
  if (!audit.ok()) return audit;
  store_ = std::move(store);
  writer_ = std::make_unique<persist::StoreWriter>(store_.get());
  auto persist = [this](const std::string& key, const auto& outcome) {
    writer_->Enqueue(key, outcome);
  };
  cache_.SetNewEntryListener(persist);
  inference_cache_.SetNewEntryListener(persist);
  return Status::Ok();
}

Status BatchEngine::FlushStore() {
  if (writer_ == nullptr) return Status::Ok();
  return writer_->Drain();
}

void BatchEngine::Submit(const BatchRequest& request,
                         std::function<void(BatchItemResult)> on_done) {
  TERMILOG_COUNTER("engine.requests", 1);
  auto state = std::make_shared<RequestState>();
  state->request = {request.name, PrivateCopy(request.program), request.query,
                    request.adornment, request.options};
  state->on_done = std::move(on_done);
  state->analyzer = std::make_unique<TerminationAnalyzer>(request.options);
  state->parent_span = obs::Tracer::Current();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
  }
  queue_->Push([this, state] { Prepare(state); });
}

std::vector<BatchItemResult> BatchEngine::Run(
    const std::vector<BatchRequest>& requests,
    const std::function<void(const BatchItemResult&)>& on_result) {
  const auto run_start = std::chrono::steady_clock::now();
  const size_t n = requests.size();
  obs::SpanId batch_span = obs::BeginSpan("batch.run", "engine");
  obs::SpanArg(batch_span, "requests", StrCat(n));
  obs::SpanArg(batch_span, "jobs", StrCat(options_.jobs));

  // Workers fill the slots in completion order; this thread delivers them
  // in request order. The callbacks share ownership, so none can touch
  // freed merge state after Run returns.
  struct Merge {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<BatchItemResult>> slots;
  };
  auto merge = std::make_shared<Merge>();
  merge->slots.resize(n);
  {
    obs::ScopedParent parent(batch_span);
    for (size_t i = 0; i < n; ++i) {
      Submit(requests[i], [merge, i](BatchItemResult item) {
        {
          std::lock_guard<std::mutex> lock(merge->mu);
          merge->slots[i] = std::move(item);
        }
        merge->cv.notify_all();
      });
    }
  }

  std::vector<BatchItemResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(merge->mu);
      merge->cv.wait(lock, [&] { return merge->slots[i].has_value(); });
      results.push_back(std::move(*merge->slots[i]));
    }
    if (on_result) on_result(results.back());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - run_start)
                         .count();
    stats_.total_wall_ms += stats_.wall_ms;
  }
  obs::EndSpan(batch_span);
  return results;
}

void BatchEngine::Prepare(const StatePtr& state_ptr) {
  RequestState& state = *state_ptr;
  state.started = std::chrono::steady_clock::now();
  const int64_t cpu_start = ThreadCpuMicros();
  const BatchRequest& request = state.request;
  state.span = obs::BeginSpan("request", "engine", state.parent_span);
  obs::SpanArg(state.span, "name", request.name);
  obs::ScopedParent trace_parent(state.span);
  ResourceGovernor governor(request.options.limits);
  state.prepared = state.analyzer->PrepareStructure(
      request.program, request.query, request.adornment, &governor);
  state.AddSpend(governor.Spend());
  // Billed before any child task can finish the request, so Complete
  // always sees the prep share.
  state.busy_us.fetch_add(ThreadCpuMicros() - cpu_start,
                          std::memory_order_relaxed);
  if (!state.prepared.ok()) {
    Complete(state_ptr);
    return;
  }

  // Inference phase. The whole-run skip failpoint fires here — once per
  // request, before any node runs — and leaves every predicate
  // unconstrained; otherwise the plan's source nodes are pushed and the
  // rest schedule themselves as their dependencies complete.
  bool run_inference = request.options.run_inference;
  if (run_inference && TERMILOG_FAILPOINT_HIT("inference.run")) {
    TerminationReport& report = state.prepared->report;
    std::string message =
        StrCat("constraint inference skipped (",
               FailpointRegistry::TripMessage("inference.run"),
               "); predicates left unconstrained");
    report.notes.push_back(message);
    report.resource_limited = true;
    if (report.first_resource_trip.empty()) {
      report.first_resource_trip = message;
    }
    run_inference = false;
  }
  const InferencePlan& plan = state.prepared->inference;
  if (!run_inference || plan.nodes.empty()) {
    ScheduleSccs(state_ptr);
    return;
  }
  const int num_nodes = static_cast<int>(plan.nodes.size());
  state.deps_left.assign(num_nodes, 0);
  state.dependents.assign(num_nodes, {});
  state.inference_warnings.assign(num_nodes, "");
  state.inference_errors.assign(num_nodes, Status::Ok());
  for (int k = 0; k < num_nodes; ++k) {
    state.deps_left[k] = static_cast<int>(plan.nodes[k].deps.size());
    for (int dep : plan.nodes[k].deps) state.dependents[dep].push_back(k);
  }
  state.pending_inference.store(num_nodes);
  // Initial readiness is read off the immutable plan, not deps_left: an
  // already-pushed source node can complete (cache hit) and decrement a
  // dependent's deps_left to zero while this loop is still running, and
  // reading that zero here would push the dependent a second time.
  for (int k = 0; k < num_nodes; ++k) {
    if (!plan.nodes[k].deps.empty()) continue;
    queue_->PushChild([this, state_ptr, k] { RunInferenceTask(state_ptr, k); });
  }
}

// Runs inference-plan node `k` of the request: one [VG90] fixpoint over
// one SCC of the condensation, through the inference cache. Callee
// polyhedra are snapshotted under db_mu; the dependency edges guarantee
// every callee entry this SCC reads is final before the node is pushed,
// so the snapshot — and with it the cache key and the result — is
// deterministic regardless of worker interleaving.
void BatchEngine::RunInferenceTask(const StatePtr& state_ptr, int k) {
  RequestState& state = *state_ptr;
  const int64_t cpu_start = ThreadCpuMicros();
  obs::ScopedParent trace_parent(state.span);
  TERMILOG_TRACE("inference.task", "engine");
  TERMILOG_COUNTER("engine.inference_tasks", 1);
  const InferencePlanNode& node = state.prepared->inference.nodes[k];
  TerminationReport& report = state.prepared->report;
  const Program& program = report.analyzed_program;
  std::vector<PredId> preds = CanonicalSccOrder(program, node.preds);

  ArgSizeDb snapshot;
  {
    std::lock_guard<std::mutex> lock(state.db_mu);
    for (const PredId& callee : InferenceCalleePreds(program, preds)) {
      if (report.arg_sizes.Has(callee)) {
        snapshot.Set(callee, report.arg_sizes.Get(callee));
      }
    }
  }

  auto compute = [&]() {
    ResourceGovernor governor(state.request.options.limits);
    InferenceOptions inference_options = state.request.options.inference;
    inference_options.fm.governor = &governor;
    Result<SccInferenceResult> result = ConstraintInference::RunScc(
        program, preds, snapshot, inference_options);
    state.AddSpend(governor.Spend());
    if (!result.ok()) {
      // Hard (non-budget) error: carried in the outcome so single-flight
      // waiters fail identically; never retained by the cache.
      CachedInferenceOutcome failed;
      failed.error = result.status();
      return failed;
    }
    return DehydrateInferenceResult(*result, program);
  };

  CachedInferenceOutcome outcome;
  if (options_.use_cache) {
    SccCacheKey key = CanonicalInferenceKey(program, preds, snapshot,
                                            state.request.options);
    bool served_from_cache = false;
    outcome =
        inference_cache_.GetOrCompute(key.text, compute, &served_from_cache);
    if (served_from_cache) {
      state.inference_hits.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    outcome = compute();
  }
  state.inference_tasks.fetch_add(1, std::memory_order_relaxed);

  std::vector<int> ready;
  {
    std::lock_guard<std::mutex> lock(state.db_mu);
    if (!outcome.error.ok()) {
      state.inference_errors[k] = outcome.error;
    } else if (outcome.resource_limited) {
      // Same warning text, composed from the same (plan-order) front
      // predicate, as the serial ConstraintInference::Run path.
      state.inference_warnings[k] =
          StrCat("inference skipped for SCC of ",
                 program.PredName(node.preds.front()),
                 " (left unconstrained): ", outcome.trip_message);
    } else {
      ApplyInferenceOutcome(outcome, program, &report.arg_sizes);
    }
    for (int dependent : state.dependents[k]) {
      if (--state.deps_left[dependent] == 0) ready.push_back(dependent);
    }
  }
  for (int dependent : ready) {
    queue_->PushChild([this, state_ptr, dependent] {
      RunInferenceTask(state_ptr, dependent);
    });
  }
  state.busy_us.fetch_add(ThreadCpuMicros() - cpu_start,
                          std::memory_order_relaxed);
  if (state.pending_inference.fetch_sub(1) == 1) FinishInference(state_ptr);
}

// Merges the inference phase into the skeleton report: the first hard
// error (in plan-node order) fails the request; budget trips degrade to
// per-node warning notes in plan-node order, as ConstraintInference::Run
// reports them.
void BatchEngine::FinishInference(const StatePtr& state_ptr) {
  RequestState& state = *state_ptr;
  for (const Status& error : state.inference_errors) {
    if (!error.ok()) {
      state.prepared = error;
      Complete(state_ptr);
      return;
    }
  }
  TerminationReport& report = state.prepared->report;
  for (const std::string& warning : state.inference_warnings) {
    if (warning.empty()) continue;
    report.notes.push_back(warning);
    report.resource_limited = true;
    if (report.first_resource_trip.empty()) {
      report.first_resource_trip = warning;
    }
  }
  state.prepared->inference.nodes.clear();
  ScheduleSccs(state_ptr);
}

// Fills the non-recursive slots and pushes one SCC task per recursive
// SCC — the tail of request admission, run by the prep task when there
// is no inference plan and by the last inference task otherwise. The db
// writes of every inference task are visible here: each task writes
// under db_mu before its seq_cst decrement of pending_inference, and the
// queue mutex orders the pushes against the SCC workers.
void BatchEngine::ScheduleSccs(const StatePtr& state_ptr) {
  RequestState& state = *state_ptr;
  PreparedAnalysis& prepared = *state.prepared;
  state.slots.resize(prepared.sccs.size());
  int recursive = 0;
  for (size_t j = 0; j < prepared.sccs.size(); ++j) {
    const SccTask& task = prepared.sccs[j];
    if (task.recursive) {
      ++recursive;
      continue;
    }
    state.slots[j].preds = task.preds;
    state.slots[j].status = SccStatus::kNonRecursive;
  }
  if (recursive == 0) {
    Complete(state_ptr);
    return;
  }
  state.pending_sccs.store(recursive);
  for (size_t j = 0; j < prepared.sccs.size(); ++j) {
    if (!prepared.sccs[j].recursive) continue;
    queue_->PushChild([this, state_ptr, j] { RunSccTask(state_ptr, j); });
  }
}

// Analyzes SCC task `j` of the request (a recursive SCC), through the
// content cache unless disabled or the SCC has an adornment conflict
// (conflict verdicts are trivial, and conflict-ness is a property of the
// request's mode dataflow, not of the SCC's content).
void BatchEngine::RunSccTask(const StatePtr& state_ptr, size_t j) {
  RequestState& state = *state_ptr;
  const int64_t cpu_start = ThreadCpuMicros();
  obs::ScopedParent trace_parent(state.span);
  TERMILOG_TRACE("scc.task", "engine");
  TERMILOG_COUNTER("engine.scc_tasks", 1);
  const SccTask& task = state.prepared->sccs[j];
  // All SCC work runs over the report skeleton's analyzed_program (the
  // post-transformation program whose PredIds the SccTasks reference).
  const TerminationReport& skeleton = state.prepared->report;
  const Program& program = skeleton.analyzed_program;
  std::vector<PredId> preds = CanonicalSccOrder(program, task.preds);

  auto compute = [&]() {
    ResourceGovernor governor(state.request.options.limits);
    SccReport fresh = state.analyzer->AnalyzeScc(
        program, preds, skeleton.modes, skeleton.arg_sizes,
        task.has_conflict, &governor);
    GovernorSpend spend = governor.Spend();
    state.AddSpend(spend);
    if (fresh.status == SccStatus::kResourceLimit) {
      // Deterministic spend note: work and limb counts are functions of
      // the task's inputs; elapsed_ms is deliberately omitted so batch
      // output stays byte-stable across jobs settings and reruns.
      fresh.notes.push_back(StrCat("task spend: work=", spend.work,
                                   " bigint_limbs=",
                                   spend.bigint_limb_high_water));
    }
    return DehydrateSccReport(fresh, program);
  };

  CachedSccOutcome outcome;
  if (options_.use_cache && !task.has_conflict) {
    SccCacheKey key = CanonicalSccKey(program, preds, skeleton.modes,
                                      skeleton.arg_sizes,
                                      state.request.options);
    bool served_from_cache = false;
    outcome = cache_.GetOrCompute(key.text, compute, &served_from_cache);
    if (served_from_cache) {
      state.cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    outcome = compute();
  }
  state.scc_tasks.fetch_add(1, std::memory_order_relaxed);
  state.slots[j] = RehydrateSccReport(outcome, program, std::move(preds));
  state.busy_us.fetch_add(ThreadCpuMicros() - cpu_start,
                          std::memory_order_relaxed);
  if (state.pending_sccs.fetch_sub(1) == 1) Complete(state_ptr);
}

// Assembles the result on the worker that finished the request's last
// task and hands it to on_done.
void BatchEngine::Complete(const StatePtr& state_ptr) {
  RequestState& state = *state_ptr;
  const auto finished = std::chrono::steady_clock::now();
  BatchItemResult item;
  item.name = std::move(state.request.name);
  if (!state.prepared.ok()) {
    item.status = state.prepared.status();
  } else {
    TerminationReport report = std::move(state.prepared->report);
    report.proved = true;
    for (SccReport& scc : state.slots) {
      if (scc.status == SccStatus::kResourceLimit) {
        report.resource_limited = true;
        if (report.first_resource_trip.empty()) {
          report.first_resource_trip =
              scc.notes.empty() ? "resource budget tripped" : scc.notes.front();
        }
      }
      if (scc.status != SccStatus::kProved &&
          scc.status != SccStatus::kNonRecursive) {
        report.proved = false;
      }
      report.sccs.push_back(std::move(scc));
    }
    report.spend.work = state.work.load();
    report.spend.bigint_limb_high_water = state.limb_high_water.load();
    report.spend.elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(finished -
                                                              state.started)
            .count();
    item.report = std::move(report);
  }
  item.scc_tasks = state.scc_tasks.load();
  item.cache_hits = state.cache_hits.load();
  item.inference_tasks = state.inference_tasks.load();
  item.inference_cache_hits = state.inference_hits.load();
  item.latency_us = state.busy_us.load(std::memory_order_relaxed);
  item.e2e_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    finished - state.started)
                    .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests += 1;
    stats_.scc_tasks += item.scc_tasks;
    stats_.inference_tasks += item.inference_tasks;
    stats_.total_work += state.work.load();
  }
  obs::EndSpan(state.span);
  state.on_done(std::move(item));
  std::lock_guard<std::mutex> lock(mu_);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

Status BatchEngine::SelfCheck() const {
  Status audit = cache_.SelfCheck();
  if (!audit.ok()) return audit;
  return inference_cache_.SelfCheck();
}

EngineStats BatchEngine::stats() const {
  EngineStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
  }
  // A single-flight waiter was served without computing, so it counts as
  // a hit in EngineStats.
  const CacheStats scc = cache_.stats();
  stats.cache_hits = scc.hits + scc.single_flight_waits;
  stats.cache_misses = scc.misses;
  stats.single_flight_waits = scc.single_flight_waits;
  stats.unique_sccs = cache_.size();
  stats.persisted_loaded = scc.persisted_loaded;
  stats.persisted_hits = scc.persisted_hits;
  const CacheStats inference = inference_cache_.stats();
  stats.inference_cache_hits = inference.hits + inference.single_flight_waits;
  stats.inference_cache_misses = inference.misses;
  stats.inference_single_flight_waits = inference.single_flight_waits;
  stats.unique_inference_sccs = inference_cache_.size();
  stats.inference_persisted_loaded = inference.persisted_loaded;
  stats.inference_persisted_hits = inference.persisted_hits;
  return stats;
}

}  // namespace termilog
