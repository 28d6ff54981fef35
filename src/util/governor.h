#ifndef TERMILOG_UTIL_GOVERNOR_H_
#define TERMILOG_UTIL_GOVERNOR_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "util/status.h"

namespace termilog {

/// Budget limits for one analysis run. Zero means "unlimited" for every
/// dimension, so a default-constructed GovernorLimits never trips.
struct GovernorLimits {
  /// Wall-clock budget in milliseconds, measured on a steady clock from the
  /// governor's construction.
  int64_t deadline_ms = 0;
  /// Abstract work ticks. One tick is one unit of the library's hot-loop
  /// currency: an FM row combination, a simplex pivot, an inference sweep,
  /// an unfold step, an SLD resolution step, a bottom-up fact derivation.
  int64_t work_budget = 0;
  /// Cap on the limb count (32-bit limbs) of the largest BigInt produced
  /// while the governor is live — a high-water proxy for coefficient /
  /// memory blowup in the exact-rational kernels.
  int64_t bigint_limb_limit = 0;

  bool Unlimited() const {
    return deadline_ms == 0 && work_budget == 0 && bigint_limb_limit == 0;
  }
};

/// Snapshot of what a governor has spent so far.
struct GovernorSpend {
  int64_t work = 0;
  int64_t elapsed_ms = 0;
  int64_t bigint_limb_high_water = 0;

  /// Renders "work=N bigint_limbs=N" — the input-determined dimensions
  /// only. Anything that reaches report bytes (trip messages, notes) must
  /// use this form: elapsed wall time differs run to run and across --jobs
  /// levels, and report output is byte-identical by contract.
  std::string DeterministicToString() const;
};

/// A single budget object shared (by const pointer) across every subsystem
/// of one task (the batch engine builds one per task; docs/engine.md):
/// Fourier-Motzkin, simplex, constraint inference, the transform pipeline,
/// and both interpreters all charge the same counter. When any budget is
/// exceeded the governor trips *stickily*: every later Charge/CheckNow
/// returns the same structured kResourceExhausted status, so the task
/// winds down quickly instead of grinding through its remaining work at
/// full cost.
///
/// Charging mutates internal counters through a const reference on purpose
/// — the governor is threaded as `const ResourceGovernor*` through options
/// structs, and spending budget is not a logical mutation of the analysis
/// inputs.
///
/// Thread contract: **one thread per governor**. A governor must be
/// constructed, charged, and sampled (Spend) on the same thread — its
/// counters are unsynchronized and its limb high-water is a thread-local
/// inside BigInt, so construction on thread A and use on thread B would
/// silently measure the wrong thread's arithmetic. Concurrent governors on
/// *different* threads are fine (this is how the batch engine runs one
/// governor per SCC task); two threads sharing one governor are not. Debug
/// builds enforce the contract with a thread-id check.
class ResourceGovernor {
 public:
  /// Unlimited governor; Charge never trips.
  ResourceGovernor() : ResourceGovernor(GovernorLimits()) {}
  /// Starts the deadline clock now and resets the BigInt limb high-water
  /// mark for this thread, so Spend() and the limb budget measure only
  /// arithmetic performed while this governor is live — a stale high-water
  /// from an earlier task on the same (possibly pooled) thread never leaks
  /// into this governor's accounting.
  explicit ResourceGovernor(const GovernorLimits& limits);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  const GovernorLimits& limits() const { return limits_; }

  /// Charges `amount` work ticks at `site` (a short dotted identifier like
  /// "fm.eliminate" naming the budget-check location). Returns OK while all
  /// budgets hold; returns kResourceExhausted with a structured reason —
  /// which budget, where, how much was spent — once any budget is exceeded.
  /// The wall clock and limb high-water are sampled every few ticks, not on
  /// every call, to keep the hot loops cheap.
  Status Charge(const char* site, int64_t amount = 1) const;

  /// Deadline / limb check without charging work (for call sites that want
  /// an up-front "is there any budget left" test).
  Status CheckNow(const char* site) const;

  /// True once any budget has tripped.
  bool exhausted() const { return tripped_; }
  /// The first trip status; OK while not exhausted.
  const Status& trip_status() const { return trip_; }

  GovernorSpend Spend() const;

 private:
  Status Trip(const char* site, const char* budget,
              const std::string& detail) const;
  Status CheckClockAndLimbs(const char* site) const;
  void CheckThread() const;

  GovernorLimits limits_;
  std::chrono::steady_clock::time_point start_;
#ifndef NDEBUG
  std::thread::id owner_thread_;
#endif
  mutable int64_t work_ = 0;
  mutable int64_t ticks_since_clock_check_ = 0;
  mutable bool tripped_ = false;
  mutable Status trip_;
};

}  // namespace termilog

#endif  // TERMILOG_UTIL_GOVERNOR_H_
