#include "util/governor.h"

#include "obs/obs.h"
#include "rational/bigint.h"
#include "util/check.h"
#include "util/string_util.h"

namespace termilog {
namespace {

// How many work ticks may pass between steady-clock / limb samples. The
// clock read is ~20ns but the hot loops (simplex pivots, SLD steps) run
// millions of iterations, so sampling every tick would be measurable.
constexpr int64_t kClockCheckInterval = 64;

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string GovernorSpend::DeterministicToString() const {
  return StrCat("work=", work, " bigint_limbs=", bigint_limb_high_water);
}

ResourceGovernor::ResourceGovernor(const GovernorLimits& limits)
    : limits_(limits), start_(std::chrono::steady_clock::now()) {
#ifndef NDEBUG
  owner_thread_ = std::this_thread::get_id();
#endif
  // The limb high-water is a thread-local inside BigInt; reset it
  // unconditionally so this governor measures only growth that happens on
  // its watch. Resetting only when a limb limit was set (the old behavior)
  // made Spend() report a stale high-water left over from an earlier
  // analysis on the same thread — on a pooled worker thread that ran other
  // tasks, the numbers of unrelated tasks bled into each other.
  BigInt::ResetLimbHighWater();
}

void ResourceGovernor::CheckThread() const {
#ifndef NDEBUG
  TERMILOG_CHECK_MSG(std::this_thread::get_id() == owner_thread_,
                     "ResourceGovernor used from a thread other than the one "
                     "that constructed it (one-thread-per-governor contract)");
#endif
}

Status ResourceGovernor::Trip(const char* site, const char* budget,
                              const std::string& detail) const {
  if (!tripped_) {
    tripped_ = true;
    // The StrCat argument is evaluated inside the macro, so it compiles
    // away with TERMILOG_OBS — trips are rare, so the allocation is fine.
    TERMILOG_COUNTER("governor.trips", 1);
    TERMILOG_COUNTER(StrCat("governor.trips.", budget).c_str(), 1);
    // The trip message propagates into report notes, which are
    // byte-identical across runs and --jobs levels — so it may carry only
    // the deterministic spend dimensions, never elapsed wall time.
    trip_ = Status::ResourceExhausted(
        StrCat("governor: ", budget, " budget exhausted at ", site, " (",
               detail, "; spent ", Spend().DeterministicToString(), ")"));
  }
  return trip_;
}

Status ResourceGovernor::CheckClockAndLimbs(const char* site) const {
  if (limits_.deadline_ms > 0 && ElapsedMs(start_) > limits_.deadline_ms) {
    return Trip(site, "wall-clock",
                StrCat("deadline ", limits_.deadline_ms, "ms"));
  }
  if (limits_.bigint_limb_limit > 0 &&
      BigInt::LimbHighWater() > limits_.bigint_limb_limit) {
    return Trip(site, "bigint-limb",
                StrCat("limit ", limits_.bigint_limb_limit, " limbs"));
  }
  return Status::Ok();
}

Status ResourceGovernor::Charge(const char* site, int64_t amount) const {
  CheckThread();
  if (tripped_) return trip_;
  work_ += amount;
  if (limits_.Unlimited()) return Status::Ok();
  if (limits_.work_budget > 0 && work_ > limits_.work_budget) {
    return Trip(site, "work", StrCat("limit ", limits_.work_budget, " ticks"));
  }
  ticks_since_clock_check_ += amount;
  if (ticks_since_clock_check_ >= kClockCheckInterval) {
    ticks_since_clock_check_ = 0;
    return CheckClockAndLimbs(site);
  }
  return Status::Ok();
}

Status ResourceGovernor::CheckNow(const char* site) const {
  CheckThread();
  if (tripped_) return trip_;
  if (limits_.Unlimited()) return Status::Ok();
  if (limits_.work_budget > 0 && work_ > limits_.work_budget) {
    return Trip(site, "work", StrCat("limit ", limits_.work_budget, " ticks"));
  }
  ticks_since_clock_check_ = 0;
  return CheckClockAndLimbs(site);
}

GovernorSpend ResourceGovernor::Spend() const {
  CheckThread();
  GovernorSpend spend;
  spend.work = work_;
  spend.elapsed_ms = ElapsedMs(start_);
  spend.bigint_limb_high_water = BigInt::LimbHighWater();
  return spend;
}

}  // namespace termilog
