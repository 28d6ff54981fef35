// Chaos regression for the batch engine (docs/generator.md): a generated
// workload runs repeatedly while seeded TERMILOG_FAILPOINTS-style specs
// force kResourceExhausted at library failpoints. The invariants under
// test, for every round:
//   - no request errors: a forced trip degrades along the governor ladder
//     (docs/robustness.md) to a valid, possibly RESOURCE_LIMIT, verdict;
//   - a resource-limited report names its first trip;
//   - BatchEngine::SelfCheck passes for both caches (no abandoned
//     single-flight slot, no retained starved or errored outcome);
// and once injection stops, a clean run on the *same engine* must match
// the generator's declared verdicts exactly — the cache-poisoning check.
//
// This file lives in termilog_engine_tests so the ASan and TSan trees
// exercise it (scripts/check.sh): fault injection at jobs=4 is exactly
// where a leaked entry or a lock-order mistake would surface.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "gen/gen.h"
#include "util/failpoint.h"

namespace termilog {
namespace {

std::vector<BatchRequest> ProvableRequests(uint64_t seed, int count) {
  gen::GenParams params;
  params.seed = seed;
  params.count = count;
  params.mix_proved = 100;
  params.mix_not_proved = 0;
  params.mix_resource_limit = 0;
  params.name_prefix = "chaos";
  Result<std::vector<BatchRequest>> requests =
      gen::WorkloadToBatchRequests(gen::Generate(params));
  EXPECT_TRUE(requests.ok()) << requests.status().ToString();
  return std::move(requests).value();
}

// The failpoint sites that sit on the analysis path of generated
// programs (interpreter sites excluded: the analyzer never runs them).
constexpr const char* kSites[] = {"analyzer.scc", "dual.build",
                                  "fm.eliminate", "inference.run",
                                  "inference.sweep", "lp.pivot",
                                  "transform.phase", "transform.pipeline"};

std::string SeededSpec(gen::Rng& rng) {
  std::string spec(kSites[rng.NextBelow(sizeof(kSites) / sizeof(kSites[0]))]);
  if (rng.Chance(70)) {
    spec += '=';
    spec += std::to_string(rng.NextInt(1, 32));
  }
  return spec;
}

TEST(ChaosTest, InjectedFaultsDegradeAndNeverPoisonTheCache) {
  std::vector<BatchRequest> requests = ProvableRequests(97, 40);
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  gen::Rng rng = gen::Rng::Stream(97, 1);

  for (int round = 0; round < 5; ++round) {
    std::string spec = SeededSpec(rng);
    SCOPED_TRACE("round " + std::to_string(round) + " spec " + spec);
    FailpointRegistry::Global().EnableFromSpec(spec);
    std::vector<BatchItemResult> results = engine.Run(requests);
    FailpointRegistry::Global().Clear();

    ASSERT_EQ(results.size(), requests.size());
    for (const BatchItemResult& item : results) {
      // Ladder, not failure: a forced trip must never surface as a
      // request error.
      EXPECT_TRUE(item.status.ok())
          << item.name << ": " << item.status.ToString();
      if (item.report.resource_limited) {
        EXPECT_FALSE(item.report.first_resource_trip.empty()) << item.name;
      }
    }
    Status cache_check = engine.SelfCheck();
    EXPECT_TRUE(cache_check.ok()) << cache_check.ToString();
  }

  // Injection over: the same engine must now prove everything. A cached
  // RESOURCE_LIMIT outcome or an abandoned single-flight slot from the
  // chaos rounds would break this.
  std::vector<BatchItemResult> clean = engine.Run(requests);
  for (const BatchItemResult& item : clean) {
    ASSERT_TRUE(item.status.ok()) << item.name;
    EXPECT_TRUE(item.report.proved) << item.name;
    EXPECT_FALSE(item.report.resource_limited) << item.name;
  }
  Status final_check = engine.SelfCheck();
  EXPECT_TRUE(final_check.ok()) << final_check.ToString();
}

#ifdef TERMILOG_FAILPOINTS_ENABLED
TEST(ChaosTest, ForcedSccTripsAreNeverCached) {
  // analyzer.scc forces every SCC verdict to RESOURCE_LIMIT outright —
  // the one injection the analyzer cannot route around. Starved verdicts
  // must reach the caller but never the cache.
  std::vector<BatchRequest> requests = ProvableRequests(5, 12);
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  {
    ScopedFailpoint fp("analyzer.scc");
    std::vector<BatchItemResult> results = engine.Run(requests);
    for (const BatchItemResult& item : results) {
      ASSERT_TRUE(item.status.ok()) << item.name;
      EXPECT_TRUE(item.report.resource_limited) << item.name;
      EXPECT_FALSE(item.report.proved) << item.name;
    }
  }
  // Nothing of those starved verdicts may have been retained.
  EXPECT_EQ(engine.stats().unique_sccs, 0);
  Status cache_check = engine.SelfCheck();
  EXPECT_TRUE(cache_check.ok()) << cache_check.ToString();

  // And with the failpoint gone the same engine proves all of them.
  std::vector<BatchItemResult> clean = engine.Run(requests);
  for (const BatchItemResult& item : clean) {
    EXPECT_TRUE(item.report.proved) << item.name;
    EXPECT_FALSE(item.report.resource_limited) << item.name;
  }
}

TEST(ChaosTest, DegradedInferenceMayStillProve) {
  // fm.eliminate sits on the constraint-inference path, not the verdict
  // path: forcing it degrades inference (the report is flagged
  // resource-limited) but the analyzer falls back and can still prove
  // these simple programs — the ladder gives up precision, not verdicts.
  std::vector<BatchRequest> requests = ProvableRequests(5, 12);
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  {
    ScopedFailpoint fp("fm.eliminate");
    std::vector<BatchItemResult> results = engine.Run(requests);
    for (const BatchItemResult& item : results) {
      ASSERT_TRUE(item.status.ok()) << item.name;
      EXPECT_TRUE(item.report.resource_limited) << item.name;
      EXPECT_FALSE(item.report.first_resource_trip.empty()) << item.name;
    }
  }
  Status cache_check = engine.SelfCheck();
  EXPECT_TRUE(cache_check.ok()) << cache_check.ToString();

  // Degraded-inference outcomes are keyed on the degraded constraint set,
  // so a clean rerun on the same engine computes fresh entries and must
  // come back unflagged.
  std::vector<BatchItemResult> clean = engine.Run(requests);
  for (const BatchItemResult& item : clean) {
    EXPECT_TRUE(item.report.proved) << item.name;
    EXPECT_FALSE(item.report.resource_limited) << item.name;
  }
}

TEST(ChaosTest, BoundedFailpointRecoversMidBatch) {
  // Fail only the first few hits: early requests degrade, later ones
  // compute normally — the ladder is per-task, not per-engine.
  std::vector<BatchRequest> requests = ProvableRequests(6, 30);
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  FailpointRegistry::Global().EnableFromSpec("fm.eliminate=3");
  std::vector<BatchItemResult> results = engine.Run(requests);
  FailpointRegistry::Global().Clear();

  int64_t limited = 0, proved = 0;
  for (const BatchItemResult& item : results) {
    ASSERT_TRUE(item.status.ok()) << item.name;
    if (item.report.resource_limited) ++limited;
    if (item.report.proved) ++proved;
  }
  EXPECT_GT(limited, 0);
  EXPECT_GT(proved, 0);
  Status cache_check = engine.SelfCheck();
  EXPECT_TRUE(cache_check.ok()) << cache_check.ToString();
}
#endif  // TERMILOG_FAILPOINTS_ENABLED

}  // namespace
}  // namespace termilog
