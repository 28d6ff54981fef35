// ResourceGovernor and FailpointRegistry unit tests: budget accounting,
// sticky trips, structured trip messages, and deterministic fault
// injection.

#include "util/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "rational/bigint.h"
#include "util/failpoint.h"

namespace termilog {
namespace {

TEST(GovernorTest, DefaultLimitsAreUnlimited) {
  GovernorLimits limits;
  EXPECT_TRUE(limits.Unlimited());
  ResourceGovernor governor(limits);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(governor.Charge("test.site").ok());
  }
  EXPECT_FALSE(governor.exhausted());
}

TEST(GovernorTest, WorkBudgetTripsWithStructuredReason) {
  GovernorLimits limits;
  limits.work_budget = 10;
  ResourceGovernor governor(limits);
  Status status = Status::Ok();
  for (int i = 0; i < 20 && status.ok(); ++i) {
    status = governor.Charge("fm.eliminate");
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.exhausted());
  // The reason names the budget, the site, and the spend.
  EXPECT_NE(status.message().find("work"), std::string::npos);
  EXPECT_NE(status.message().find("fm.eliminate"), std::string::npos);
  EXPECT_NE(status.message().find("work=11"), std::string::npos);
}

TEST(GovernorTest, TripIsSticky) {
  GovernorLimits limits;
  limits.work_budget = 1;
  ResourceGovernor governor(limits);
  ASSERT_TRUE(governor.Charge("a").ok());
  Status first = governor.Charge("a", 100);
  ASSERT_FALSE(first.ok());
  // Later charges (any site) return the original trip, not a new one.
  Status second = governor.Charge("b");
  EXPECT_EQ(second.message(), first.message());
  EXPECT_EQ(governor.trip_status().message(), first.message());
  EXPECT_FALSE(governor.CheckNow("c").ok());
}

TEST(GovernorTest, ChargeAmountIsCounted) {
  GovernorLimits limits;
  limits.work_budget = 100;
  ResourceGovernor governor(limits);
  ASSERT_TRUE(governor.Charge("bulk", 100).ok());
  EXPECT_EQ(governor.Spend().work, 100);
  EXPECT_FALSE(governor.Charge("bulk", 1).ok());
}

TEST(GovernorTest, DeadlineTripsAfterItPasses) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor governor(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is sampled every few ticks, so charge enough to force a
  // sample.
  Status status = Status::Ok();
  for (int i = 0; i < 200 && status.ok(); ++i) {
    status = governor.Charge("slow.loop");
  }
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("wall-clock"), std::string::npos);
}

TEST(GovernorTest, CheckNowSamplesTheClockImmediately) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor governor(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(governor.CheckNow("up.front").ok());
}

TEST(GovernorTest, BigIntLimbLimitTripsOnCoefficientBlowup) {
  GovernorLimits limits;
  limits.bigint_limb_limit = 4;  // anything beyond ~128 bits trips
  ResourceGovernor governor(limits);
  BigInt big(1);
  const BigInt factor(1000000007);
  for (int i = 0; i < 10; ++i) big = big * factor;  // ~300 bits
  Status status = Status::Ok();
  for (int i = 0; i < 200 && status.ok(); ++i) {
    status = governor.Charge("rational.mul");
  }
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bigint-limb"), std::string::npos);
}

TEST(GovernorTest, ConstructionResetsLimbHighWater) {
  {
    BigInt big(1);
    const BigInt factor(1000000007);
    for (int i = 0; i < 10; ++i) big = big * factor;
  }
  GovernorLimits limits;
  limits.bigint_limb_limit = 1000;
  ResourceGovernor governor(limits);  // resets the thread-local high-water
  EXPECT_LE(governor.Spend().bigint_limb_high_water, 1000);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(governor.Charge("after.reset").ok());
  }
}

TEST(GovernorTest, SpendToStringFormat) {
  GovernorSpend spend;
  spend.work = 7;
  spend.elapsed_ms = 3;
  spend.bigint_limb_high_water = 2;
  EXPECT_EQ(spend.DeterministicToString(), "work=7 bigint_limbs=2");
}

#ifdef TERMILOG_FAILPOINTS_ENABLED

TEST(FailpointTest, DisabledByDefault) {
  EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.nothing"));
}

TEST(FailpointTest, ScopedFailpointFiresAndExpires) {
  {
    ScopedFailpoint fp("governor_test.a");
    EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.a"));
    EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.a"));
    EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.other"));
  }
  EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.a"));
}

TEST(FailpointTest, MaxFailsLimitsTheForcedFailures) {
  ScopedFailpoint fp("governor_test.twice", /*max_fails=*/2);
  EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.twice"));
  EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.twice"));
  EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.twice"));
  EXPECT_EQ(FailpointRegistry::Global().FailCount("governor_test.twice"), 2);
}

TEST(FailpointTest, EnableFromSpecParsesCommaSeparatedSites) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.EnableFromSpec("governor_test.x,governor_test.y=1");
  EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.x"));
  EXPECT_TRUE(TERMILOG_FAILPOINT_HIT("governor_test.y"));
  EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.y"));  // =1 exhausted
  registry.Disable("governor_test.x");
  registry.Disable("governor_test.y");
  EXPECT_FALSE(TERMILOG_FAILPOINT_HIT("governor_test.x"));
}

TEST(FailpointTest, StatementMacroReturnsResourceExhausted) {
  auto guarded = []() -> Status {
    TERMILOG_FAILPOINT("governor_test.macro");
    return Status::Ok();
  };
  EXPECT_TRUE(guarded().ok());
  ScopedFailpoint fp("governor_test.macro");
  Status status = guarded();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("governor_test.macro"), std::string::npos);
}

#endif  // TERMILOG_FAILPOINTS_ENABLED

}  // namespace
}  // namespace termilog
