#include "persist/writer.h"

#include <utility>

namespace termilog {
namespace persist {

StoreWriter::StoreWriter(PersistentStore* store, size_t queue_capacity)
    : store_(store),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      thread_([this] { Loop(); }) {}

StoreWriter::~StoreWriter() {
  (void)Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

bool StoreWriter::Enqueue(std::string key, Outcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    queue_.push_back({std::move(key), std::move(outcome)});
  }
  work_cv_.notify_one();
  return true;
}

Status StoreWriter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  Status error = first_error_;
  lock.unlock();
  Status flushed = store_->Flush();
  if (!flushed.ok() && error.ok()) error = flushed;
  return error;
}

int64_t StoreWriter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

int64_t StoreWriter::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

void StoreWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    QueueItem item = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    Status appended = std::visit(
        [this, &item](const auto& outcome) {
          return store_->Append(item.key, outcome);
        },
        item.outcome);
    lock.lock();
    busy_ = false;
    if (appended.ok()) {
      ++written_;
    } else if (first_error_.ok()) {
      first_error_ = appended;
    }
    if (queue_.empty()) drain_cv_.notify_all();
  }
}

}  // namespace persist
}  // namespace termilog
