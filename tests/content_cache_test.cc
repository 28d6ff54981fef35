// Contract suite for ContentCache (src/engine/content_cache.h), run over
// both outcome types the engine memoizes: the SCC termination outcome and
// the inference outcome. Each instantiation must hit on the second lookup,
// never retain what CacheTraits<Outcome>::Retainable rejects, compute once
// under contention, screen Preload input, and offer only fresh retained
// outcomes to the persistence listener. Type-specific cases (errored
// inference, the dehydrate round trips) live in engine_test.cc and
// inference_cache_test.cc.

#include "engine/content_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/cached_outcomes.h"

namespace termilog {
namespace {

// Per-type sample outcomes: one retainable value, every way to be
// non-retainable, and a field that tells retained values apart.
template <typename Outcome>
struct Samples;

template <>
struct Samples<CachedSccOutcome> {
  static CachedSccOutcome Retainable(const std::string& tag) {
    CachedSccOutcome outcome;
    outcome.status = SccStatus::kProved;
    outcome.reduced_constraints = tag;
    return outcome;
  }
  static std::vector<CachedSccOutcome> NonRetainable() {
    CachedSccOutcome starved;
    starved.status = SccStatus::kResourceLimit;
    return {starved};
  }
  static std::string Tag(const CachedSccOutcome& outcome) {
    return outcome.reduced_constraints;
  }
};

template <>
struct Samples<CachedInferenceOutcome> {
  static CachedInferenceOutcome Retainable(const std::string& tag) {
    CachedInferenceOutcome outcome;
    CachedInferenceOutcome::Entry entry;
    entry.name = tag;
    entry.arity = 3;
    entry.polyhedron = Polyhedron::NonNegativeOrthant(3);
    outcome.entries.push_back(std::move(entry));
    return outcome;
  }
  static std::vector<CachedInferenceOutcome> NonRetainable() {
    CachedInferenceOutcome starved;
    starved.resource_limited = true;
    starved.trip_message = "work budget exceeded";
    CachedInferenceOutcome errored;
    errored.error = Status::Internal("fixpoint failed");
    return {starved, errored};
  }
  static std::string Tag(const CachedInferenceOutcome& outcome) {
    return outcome.entries.empty() ? "" : outcome.entries[0].name;
  }
};

template <typename Outcome>
class ContentCacheTest : public ::testing::Test {
 protected:
  using S = Samples<Outcome>;
  ContentCache<Outcome> cache_;
};

using OutcomeTypes = ::testing::Types<CachedSccOutcome, CachedInferenceOutcome>;
TYPED_TEST_SUITE(ContentCacheTest, OutcomeTypes);

TYPED_TEST(ContentCacheTest, HitOnSecondLookup) {
  using S = typename TestFixture::S;
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return S::Retainable("first");
  };
  bool from_cache = true;
  this->cache_.GetOrCompute("key", compute, &from_cache);
  EXPECT_FALSE(from_cache);
  TypeParam again = this->cache_.GetOrCompute("key", compute, &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(S::Tag(again), "first");
  EXPECT_EQ(this->cache_.stats().hits, 1);
  EXPECT_EQ(this->cache_.stats().misses, 1);
  EXPECT_EQ(this->cache_.size(), 1);
  EXPECT_TRUE(this->cache_.SelfCheck().ok());
}

TYPED_TEST(ContentCacheTest, NonRetainableOutcomesAreNotRetained) {
  using S = typename TestFixture::S;
  for (const TypeParam& outcome : S::NonRetainable()) {
    ContentCache<TypeParam> cache;
    int computed = 0;
    auto compute = [&] {
      ++computed;
      return outcome;
    };
    // The computing caller still gets the outcome; nobody later does.
    TypeParam first = cache.GetOrCompute("key", compute);
    EXPECT_FALSE(CacheTraits<TypeParam>::Retainable(first));
    EXPECT_EQ(cache.size(), 0);
    cache.GetOrCompute("key", compute);
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_TRUE(cache.SelfCheck().ok());
  }
}

TYPED_TEST(ContentCacheTest, SingleFlightUnderContention) {
  using S = typename TestFixture::S;
  std::atomic<int> computed{0};
  auto compute = [&] {
    computed.fetch_add(1);
    // Hold the in-flight window open long enough that the other threads
    // arrive while the computation is still running.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return S::Retainable("contended");
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<TypeParam> outcomes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outcomes[t] = this->cache_.GetOrCompute("contended", compute);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computed.load(), 1);
  for (const TypeParam& outcome : outcomes) {
    EXPECT_EQ(S::Tag(outcome), "contended");
  }
  CacheStats stats = this->cache_.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.single_flight_waits, kThreads - 1);
  EXPECT_EQ(stats.lookups, kThreads);
  EXPECT_TRUE(this->cache_.SelfCheck().ok());
}

TYPED_TEST(ContentCacheTest, PreloadScreensAndServesPersistedHits) {
  using S = typename TestFixture::S;
  EXPECT_FALSE(this->cache_.Preload("", S::Retainable("empty key")));
  for (const TypeParam& outcome : S::NonRetainable()) {
    EXPECT_FALSE(this->cache_.Preload("k", outcome));
  }
  EXPECT_TRUE(this->cache_.Preload("k", S::Retainable("stored")));
  EXPECT_FALSE(this->cache_.Preload("k", S::Retainable("duplicate")));
  EXPECT_EQ(this->cache_.stats().persisted_loaded, 1);

  int computed = 0;
  TypeParam served = this->cache_.GetOrCompute("k", [&] {
    ++computed;
    return S::Retainable("recomputed");
  });
  EXPECT_EQ(computed, 0);
  EXPECT_EQ(S::Tag(served), "stored");
  EXPECT_EQ(this->cache_.stats().hits, 1);
  EXPECT_EQ(this->cache_.stats().persisted_hits, 1);
  EXPECT_TRUE(this->cache_.SelfCheck().ok());
}

TYPED_TEST(ContentCacheTest, ListenerSeesOnlyFreshRetainedOutcomes) {
  using S = typename TestFixture::S;
  std::vector<std::string> offered;
  this->cache_.SetNewEntryListener(
      [&offered](const std::string& key, const TypeParam&) {
        offered.push_back(key);
      });
  ASSERT_TRUE(this->cache_.Preload("preloaded", S::Retainable("p")));
  this->cache_.GetOrCompute("preloaded", [] { return S::Retainable("x"); });
  this->cache_.GetOrCompute("fresh", [] { return S::Retainable("f"); });
  this->cache_.GetOrCompute("fresh", [] { return S::Retainable("again"); });
  for (const TypeParam& outcome : S::NonRetainable()) {
    this->cache_.GetOrCompute("starved", [&outcome] { return outcome; });
  }
  EXPECT_EQ(offered, std::vector<std::string>{"fresh"});
}

}  // namespace
}  // namespace termilog
