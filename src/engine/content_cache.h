#ifndef TERMILOG_ENGINE_CONTENT_CACHE_H_
#define TERMILOG_ENGINE_CONTENT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "util/status.h"
#include "util/string_util.h"

namespace termilog {

/// Metrics counter names of one ContentCache instantiation
/// (docs/observability.md lists them).
struct CacheCounterNames {
  const char* lookups;
  const char* hits;
  const char* misses;
  const char* single_flight_waits;
  const char* persisted_loaded;
  const char* persisted_hits;
};

/// What ContentCache<Outcome> needs to know about one outcome type, and
/// nothing else. Each outcome type specializes it beside its definition
/// (src/engine/cached_outcomes.h) with:
///
///   static bool Retainable(const Outcome&);
///     Whether the outcome may be kept: retained by the cache, preloaded
///     from a store, and appended to one. A starved (budget-tripped) or
///     errored outcome describes the run, not the SCC, and failpoints can
///     force one without appearing in the key, so it is handed to the
///     in-flight waiters of its computation and then dropped.
///   static constexpr CacheCounterNames kCounters;
///   static constexpr const char* kLabel;  // prefixes SelfCheck messages
template <typename Outcome>
struct CacheTraits;

/// Counters of one ContentCache; every instantiation has the same fields.
struct CacheStats {
  int64_t lookups = 0;
  /// Served from a completed entry.
  int64_t hits = 0;
  /// This caller ran the compute function.
  int64_t misses = 0;
  /// Served by blocking on another worker's in-flight computation.
  int64_t single_flight_waits = 0;
  /// Entries warm-started from a persistent store (Preload).
  int64_t persisted_loaded = 0;
  /// Subset of `hits` served by a preloaded entry — work some prior
  /// process paid for (docs/persistence.md).
  int64_t persisted_hits = 0;
};

/// Thread-safe content-addressed store of per-SCC outcomes with
/// single-flight deduplication: when several workers ask for the same key
/// concurrently, exactly one runs the compute function and the rest block
/// until its result is ready — the same SCC is never solved twice, not
/// even transiently. Keys are full canonical texts (CanonicalSccKey,
/// CanonicalInferenceKey), so a lookup hit is a content match, not a hash
/// match. Outcomes that CacheTraits<Outcome>::Retainable rejects are
/// handed to in-flight waiters but never retained.
template <typename Outcome>
class ContentCache {
 public:
  using Traits = CacheTraits<Outcome>;
  using Listener = std::function<void(const std::string&, const Outcome&)>;

  ContentCache() = default;
  ContentCache(const ContentCache&) = delete;
  ContentCache& operator=(const ContentCache&) = delete;

  /// Returns the outcome for `key`, running `compute` at most once across
  /// all threads per key lifetime. `served_from_cache` (optional) is set to
  /// true when the caller did not run `compute` itself.
  Outcome GetOrCompute(const std::string& key,
                       const std::function<Outcome()>& compute,
                       bool* served_from_cache = nullptr);

  /// Inserts a ready entry recovered from a persistent store, before any
  /// GetOrCompute traffic. Returns false (entry ignored) for an empty key,
  /// a non-retainable outcome, or a key that is already present —
  /// defensive layering on top of the store's own decode validation, so
  /// even a hostile store file can only ever produce cache misses.
  bool Preload(std::string key, Outcome outcome);

  /// Registers a callback invoked (outside the cache lock, on the
  /// computing worker's thread) for every freshly computed outcome that
  /// the cache retains — the hook that appends it to an attached store.
  /// Preloaded and non-retainable outcomes never fire it. Must be set
  /// before concurrent GetOrCompute traffic begins; the callback must be
  /// thread-safe.
  void SetNewEntryListener(Listener listener);

  CacheStats stats() const;
  /// Number of completed entries currently retained.
  int64_t size() const;

  /// Post-run invariant audit, for the chaos/stress harness
  /// (docs/generator.md) and the store warm start: with no computation in
  /// flight, every retained entry must be ready (no abandoned single-flight
  /// slots) and retainable, every retained key must be non-empty, and the
  /// stats must reconcile (lookups == hits + misses + single_flight_waits;
  /// persisted hits and store-origin entries within what Preload
  /// admitted). Returns the first violation as kInternal; OK means the
  /// cache survived the run — including injected faults — structurally
  /// intact.
  Status SelfCheck() const;

 private:
  struct Entry {
    bool ready = false;
    /// Warm-started from a persistent store rather than computed here.
    bool from_store = false;
    Outcome outcome;
  };

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  CacheStats stats_;
  Listener new_entry_listener_;
};

template <typename Outcome>
Outcome ContentCache<Outcome>::GetOrCompute(
    const std::string& key, const std::function<Outcome()>& compute,
    bool* served_from_cache) {
  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.lookups;
    TERMILOG_COUNTER(Traits::kCounters.lookups, 1);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      entry = it->second;
      if (entry->ready) {
        ++stats_.hits;
        TERMILOG_COUNTER(Traits::kCounters.hits, 1);
        if (entry->from_store) {
          ++stats_.persisted_hits;
          TERMILOG_COUNTER(Traits::kCounters.persisted_hits, 1);
        }
      } else {
        // Another worker is computing this key right now: wait for it
        // rather than solving the same SCC twice.
        ++stats_.single_flight_waits;
        TERMILOG_COUNTER(Traits::kCounters.single_flight_waits, 1);
        ready_cv_.wait(lock, [&entry] { return entry->ready; });
      }
      if (served_from_cache != nullptr) *served_from_cache = true;
      return entry->outcome;
    }
    entry = std::make_shared<Entry>();
    entries_.emplace(key, entry);
    ++stats_.misses;
    TERMILOG_COUNTER(Traits::kCounters.misses, 1);
  }

  // Compute outside the lock: other keys proceed concurrently, and waiters
  // on this key block on ready_cv_, not on the mutex.
  Outcome outcome = compute();
  const bool retained = Traits::Retainable(outcome);
  Listener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->outcome = outcome;
    entry->ready = true;
    if (!retained) {
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry) entries_.erase(it);
    }
    listener = new_entry_listener_;
  }
  ready_cv_.notify_all();
  // Persistence hook, outside the lock so the store's own lock (and its
  // write) never nests inside the cache mutex. Only retained outcomes are
  // offered: a starved outcome must not outlive the run, on disk least of
  // all.
  if (retained && listener) listener(key, outcome);
  if (served_from_cache != nullptr) *served_from_cache = false;
  return outcome;
}

template <typename Outcome>
bool ContentCache<Outcome>::Preload(std::string key, Outcome outcome) {
  if (key.empty() || !Traits::Retainable(outcome)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  if (!inserted) return false;
  auto entry = std::make_shared<Entry>();
  entry->ready = true;
  entry->from_store = true;
  entry->outcome = std::move(outcome);
  it->second = std::move(entry);
  ++stats_.persisted_loaded;
  TERMILOG_COUNTER(Traits::kCounters.persisted_loaded, 1);
  return true;
}

template <typename Outcome>
void ContentCache<Outcome>::SetNewEntryListener(Listener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  new_entry_listener_ = std::move(listener);
}

template <typename Outcome>
CacheStats ContentCache<Outcome>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template <typename Outcome>
int64_t ContentCache<Outcome>::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ready = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (entry->ready) ++ready;
  }
  return ready;
}

template <typename Outcome>
Status ContentCache<Outcome>::SelfCheck() const {
  auto violation = [](const char* what) {
    return Status::Internal(StrCat(Traits::kLabel, " self-check: ", what));
  };
  std::lock_guard<std::mutex> lock(mu_);
  int64_t from_store = 0;
  for (const auto& [key, entry] : entries_) {
    if (key.empty()) return violation("empty key retained");
    if (entry == nullptr) return violation("null entry retained");
    if (!entry->ready) {
      return violation(
          "in-flight entry retained after run (abandoned single-flight "
          "slot)");
    }
    if (!Traits::Retainable(entry->outcome)) {
      return violation(
          "non-retainable outcome retained (starved or errored outcomes "
          "must never be served from cache)");
    }
    if (entry->from_store) ++from_store;
  }
  if (stats_.lookups !=
      stats_.hits + stats_.misses + stats_.single_flight_waits) {
    return violation("lookup accounting does not reconcile");
  }
  if (stats_.persisted_hits > stats_.hits) {
    return violation("more persisted hits than hits");
  }
  if (from_store > stats_.persisted_loaded) {
    return violation("more store-origin entries than Preload admitted");
  }
  return Status::Ok();
}

}  // namespace termilog

#endif  // TERMILOG_ENGINE_CONTENT_CACHE_H_
