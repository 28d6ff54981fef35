#ifndef TERMILOG_PERSIST_WRITER_H_
#define TERMILOG_PERSIST_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "persist/store.h"

namespace termilog {
namespace persist {

/// Write-behind persistence: a bounded queue drained by one background
/// thread, so engine workers hand off a freshly computed outcome in O(1)
/// and never wait on the disk. The queue sheds rather than blocks — when
/// it is full the entry is dropped (counted in `dropped`), which merely
/// means a future run recomputes that SCC: losing a persistence write
/// degrades to a cache miss, the same contract as store corruption.
///
/// Destruction (and Drain) block until every queued entry has been
/// appended and the store flushed, so a clean shutdown loses nothing.
class StoreWriter {
 public:
  /// `store` must outlive the writer.
  explicit StoreWriter(PersistentStore* store, size_t queue_capacity = 4096);
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// An outcome of either record kind.
  using Outcome = std::variant<CachedSccOutcome, CachedInferenceOutcome>;

  /// Queues one outcome for PersistentStore::Append; never blocks. Both
  /// kinds share the queue (and its capacity), preserving arrival order.
  /// Returns false (and counts a drop) when the queue is full or the
  /// writer is shutting down.
  bool Enqueue(std::string key, Outcome outcome);

  /// Blocks until the queue is empty and the store has been flushed.
  /// Returns the first append/flush error seen over the writer's
  /// lifetime (entries whose append failed are lost, not retried).
  Status Drain();

  /// Entries shed because the queue was full.
  int64_t dropped() const;
  /// Entries successfully handed to the store.
  int64_t written() const;

 private:
  struct QueueItem {
    std::string key;
    Outcome outcome;
  };

  void Loop();

  PersistentStore* const store_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signals the writer thread
  std::condition_variable drain_cv_;  // signals Drain waiters
  std::deque<QueueItem> queue_;
  bool shutdown_ = false;
  bool busy_ = false;  // writer thread is mid-append (queue may be empty)
  int64_t dropped_ = 0;
  int64_t written_ = 0;
  Status first_error_;
  std::thread thread_;
};

}  // namespace persist
}  // namespace termilog

#endif  // TERMILOG_PERSIST_WRITER_H_
