// Tests for the synthetic workload generator (src/gen/): seeded
// determinism (same seed, byte-identical output; different seeds,
// structurally distinct programs), spec-string round-trips, JSONL
// manifest round-trips, and the latency-summary helper used by the
// --connect load client.

#include "gen/gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "program/parser.h"

namespace termilog {
namespace gen {
namespace {

TEST(RngTest, SplitmixIsStable) {
  // Reference values pin the stream: a silent change to the generator
  // would re-shuffle every seeded workload in the repo.
  Rng rng(0);
  EXPECT_EQ(rng.Next(), 16294208416658607535ULL);
  EXPECT_EQ(rng.Next(), 7960286522194355700ULL);
  Rng seeded(42);
  EXPECT_EQ(seeded.Next(), 13679457532755275413ULL);
}

TEST(RngTest, NextBelowIsBoundedAndCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t value = rng.NextBelow(5);
    ASSERT_LT(value, 5u);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, StreamsAreIndependent) {
  // Request K's stream depends only on (seed, K): drawing extra values
  // from stream 0 must not perturb stream 1.
  Rng a = Rng::Stream(9, 1);
  Rng b0 = Rng::Stream(9, 0);
  for (int i = 0; i < 100; ++i) b0.Next();
  Rng a2 = Rng::Stream(9, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), a2.Next());
}

TEST(GenerateTest, SameSeedIsByteIdentical) {
  GenParams params;
  params.seed = 42;
  params.count = 50;
  GeneratedWorkload first = Generate(params);
  GeneratedWorkload second = Generate(params);
  ASSERT_EQ(first.requests.size(), second.requests.size());
  for (size_t i = 0; i < first.requests.size(); ++i) {
    EXPECT_EQ(first.requests[i].source, second.requests[i].source);
    EXPECT_EQ(first.requests[i].query, second.requests[i].query);
    EXPECT_EQ(first.requests[i].expect, second.requests[i].expect);
  }
  EXPECT_EQ(WorkloadToManifestJsonl(first), WorkloadToManifestJsonl(second));
}

// Shape signature of one request: SCC count and sizes. Two seeds that
// produced identical signatures for every request would mean the seed is
// not actually steering the structure.
std::vector<std::vector<int>> ShapeSignature(const GeneratedWorkload& w) {
  std::vector<std::vector<int>> shapes;
  for (const GeneratedRequest& request : w.requests) {
    shapes.push_back(request.scc_sizes);
  }
  return shapes;
}

TEST(GenerateTest, DifferentSeedsAreStructurallyDistinct) {
  GenParams params;
  params.count = 40;
  params.min_sccs = 1;
  params.max_sccs = 4;
  params.min_scc_size = 1;
  params.max_scc_size = 4;
  params.seed = 1;
  GeneratedWorkload one = Generate(params);
  params.seed = 2;
  GeneratedWorkload two = Generate(params);
  EXPECT_NE(ShapeSignature(one), ShapeSignature(two));
  EXPECT_NE(WorkloadToManifestJsonl(one), WorkloadToManifestJsonl(two));
}

TEST(GenerateTest, VerdictMixApproximatesRequestedShares) {
  GenParams params;
  params.seed = 11;
  params.count = 1000;
  params.mix_proved = 70;
  params.mix_not_proved = 25;
  params.mix_resource_limit = 5;
  GeneratedWorkload workload = Generate(params);
  int proved = 0, not_proved = 0, limited = 0;
  for (const GeneratedRequest& request : workload.requests) {
    switch (request.expect) {
      case ExpectedVerdict::kProved: ++proved; break;
      case ExpectedVerdict::kNotProved: ++not_proved; break;
      case ExpectedVerdict::kResourceLimit: ++limited; break;
    }
  }
  EXPECT_EQ(proved + not_proved + limited, 1000);
  // Loose bands: the draw is uniform per request, so ±5 points at
  // count=1000 is far beyond any plausible drift.
  EXPECT_NEAR(proved, 700, 50);
  EXPECT_NEAR(not_proved, 250, 50);
  EXPECT_NEAR(limited, 50, 30);
}

TEST(GenerateTest, EveryProgramParses) {
  GenParams params;
  params.seed = 3;
  params.count = 60;
  params.max_sccs = 3;
  params.max_scc_size = 3;
  params.max_arity = 3;
  GeneratedWorkload workload = Generate(params);
  for (const GeneratedRequest& request : workload.requests) {
    Result<Program> program = ParseProgram(request.source);
    ASSERT_TRUE(program.ok())
        << request.name << ": " << program.status().ToString() << "\n"
        << request.source;
    Result<std::pair<PredId, Adornment>> query =
        ParseQuerySpec(*program, request.query);
    EXPECT_TRUE(query.ok()) << request.name;
  }
}

TEST(GenerateTest, ResourceLimitRequestsCarryABudget) {
  GenParams params;
  params.seed = 5;
  params.count = 200;
  params.mix_proved = 0;
  params.mix_not_proved = 0;
  params.mix_resource_limit = 100;
  GeneratedWorkload workload = Generate(params);
  for (const GeneratedRequest& request : workload.requests) {
    EXPECT_EQ(request.expect, ExpectedVerdict::kResourceLimit);
    EXPECT_GT(request.limits.work_budget, 0);
  }
}

TEST(GenSpecTest, ParseAndRenderRoundTrip) {
  Result<GenParams> params =
      ParseGenSpec("42:count=500,sccs=2-4,preds=1-3,arity=3,depth=2,"
                   "fanout=3,mix=50/40/10,dup=20,budget=7,prefix=load");
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_EQ(params->seed, 42u);
  EXPECT_EQ(params->count, 500);
  EXPECT_EQ(params->min_sccs, 2);
  EXPECT_EQ(params->max_sccs, 4);
  EXPECT_EQ(params->mix_proved, 50);
  EXPECT_EQ(params->mix_not_proved, 40);
  EXPECT_EQ(params->mix_resource_limit, 10);
  EXPECT_EQ(params->dup_percent, 20);
  EXPECT_EQ(params->resource_work_budget, 7);
  EXPECT_EQ(params->name_prefix, "load");
  // Render and re-parse: a spec string is a stable identity for a
  // workload (it is embedded in manifests and bench JSON).
  Result<GenParams> again = ParseGenSpec(GenSpecToString(*params));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(GenSpecToString(*again), GenSpecToString(*params));
}

TEST(GenSpecTest, BareSeedUsesDefaults) {
  Result<GenParams> params = ParseGenSpec("7");
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->seed, 7u);
  EXPECT_EQ(params->count, GenParams().count);
}

TEST(GenSpecTest, RejectsUnknownKeysAndBadShapes) {
  EXPECT_FALSE(ParseGenSpec("1:bogus=3").ok());
  EXPECT_FALSE(ParseGenSpec("1:mix=50/40").ok());    // needs three weights
  EXPECT_FALSE(ParseGenSpec("1:mix=0/0/0").ok());    // weights must sum > 0
  EXPECT_FALSE(ParseGenSpec("1:sccs=4-2").ok());     // inverted range
  EXPECT_FALSE(ParseGenSpec("x:count=5").ok());      // non-numeric seed
  EXPECT_FALSE(ParseGenSpec("").ok());
  // Mix values are relative weights, not percentages: any positive sum is
  // accepted.
  EXPECT_TRUE(ParseGenSpec("1:mix=2/1/1").ok());
}

TEST(ManifestTest, JsonlRoundTripPreservesEveryRequest) {
  GenParams params;
  params.seed = 21;
  params.count = 30;
  params.mix_proved = 60;
  params.mix_not_proved = 30;
  params.mix_resource_limit = 10;
  GeneratedWorkload workload = Generate(params);
  std::string jsonl = WorkloadToManifestJsonl(workload);

  std::vector<ManifestEntry> entries = ParseManifestJsonl(jsonl);
  ASSERT_EQ(entries.size(), workload.requests.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& entry = entries[i];
    const GeneratedRequest& request = workload.requests[i];
    EXPECT_EQ(entry.name, request.name);
    EXPECT_EQ(entry.source, request.source);
    EXPECT_EQ(entry.query, request.query);
    EXPECT_EQ(entry.expect, ExpectedVerdictName(request.expect));
    if (request.limits.work_budget > 0) {
      ASSERT_TRUE(entry.has_limits);
      EXPECT_EQ(entry.limits.work_budget, request.limits.work_budget);
    }
  }
}

TEST(ManifestTest, MalformedLinesBecomePerLineErrors) {
  // A bad line no longer aborts the whole batch: it comes back as an
  // entry whose `error` names the line, so the CLI answers it with one
  // error response and every other request still runs.
  std::vector<ManifestEntry> truncated =
      ParseManifestJsonl("{\"name\":\"x\"");
  ASSERT_EQ(truncated.size(), 1u);
  EXPECT_FALSE(truncated[0].error.ok());
  EXPECT_NE(truncated[0].error.ToString().find("line 1"), std::string::npos);
  // The JSON never parsed, so no name could be salvaged from it: the
  // entry gets the stable synthetic name instead.
  EXPECT_EQ(truncated[0].name, "manifest:1");

  std::vector<ManifestEntry> mixed = ParseManifestJsonl(
      "{\"name\":\"good\",\"source\":\"a.\",\"query\":\"a\"}\n"
      "{\"name\":\"x\",\"query\":\"q(b)\","
      "\"expect\":\"maybe\",\"source\":\"a.\"}\n"  // unknown verdict
      "not json at all\n"
      "{\"name\":\"tail\",\"source\":\"b.\",\"query\":\"b\"}\n");
  ASSERT_EQ(mixed.size(), 4u);
  EXPECT_TRUE(mixed[0].error.ok());
  EXPECT_FALSE(mixed[1].error.ok());
  EXPECT_NE(mixed[1].error.ToString().find("unknown expect"),
            std::string::npos);
  EXPECT_FALSE(mixed[2].error.ok());
  EXPECT_NE(mixed[2].error.ToString().find("line 3"), std::string::npos);
  // A line with no name gets a stable synthetic one for its response.
  EXPECT_EQ(mixed[2].name, "manifest:3");
  EXPECT_TRUE(mixed[3].error.ok());
  EXPECT_EQ(mixed[3].name, "tail");

  // A header-only manifest is empty, not an error.
  std::vector<ManifestEntry> empty =
      ParseManifestJsonl("{\"gen_manifest\":1,\"spec\":\"1\",\"count\":0}\n");
  EXPECT_TRUE(empty.empty());
}

TEST(OutcomeTest, MatchesExpectTable) {
  EXPECT_TRUE(OutcomeMatchesExpect(ExpectedVerdict::kProved, true, false));
  EXPECT_FALSE(OutcomeMatchesExpect(ExpectedVerdict::kProved, false, false));
  EXPECT_TRUE(OutcomeMatchesExpect(ExpectedVerdict::kNotProved, false, false));
  EXPECT_FALSE(OutcomeMatchesExpect(ExpectedVerdict::kNotProved, false, true));
  EXPECT_TRUE(
      OutcomeMatchesExpect(ExpectedVerdict::kResourceLimit, false, true));
  EXPECT_FALSE(
      OutcomeMatchesExpect(ExpectedVerdict::kResourceLimit, true, false));
}

TEST(LatencyTest, NearestRankPercentiles) {
  // 1..100: nearest-rank p50 = 50th value, p95 = 95th, p99 = 99th.
  std::vector<int64_t> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  LatencySummary summary = SummarizeLatencies(std::move(values));
  EXPECT_EQ(summary.count, 100);
  EXPECT_EQ(summary.p50_us, 50);
  EXPECT_EQ(summary.p95_us, 95);
  EXPECT_EQ(summary.p99_us, 99);
  EXPECT_EQ(summary.max_us, 100);
}

TEST(LatencyTest, SmallAndEmptyInputs) {
  LatencySummary empty = SummarizeLatencies({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.p99_us, 0);
  LatencySummary one = SummarizeLatencies({7});
  EXPECT_EQ(one.count, 1);
  EXPECT_EQ(one.p50_us, 7);
  EXPECT_EQ(one.p99_us, 7);
  EXPECT_EQ(one.max_us, 7);
}

TEST(WorkloadTest, ConvertsToBatchRequestsWithLimits) {
  GenParams params;
  params.seed = 13;
  params.count = 20;
  params.mix_proved = 50;
  params.mix_not_proved = 0;
  params.mix_resource_limit = 50;
  GeneratedWorkload workload = Generate(params);
  Result<std::vector<BatchRequest>> requests =
      WorkloadToBatchRequests(workload);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), workload.requests.size());
  for (size_t i = 0; i < requests->size(); ++i) {
    EXPECT_EQ((*requests)[i].name, workload.requests[i].name);
    EXPECT_EQ((*requests)[i].options.limits.work_budget,
              workload.requests[i].limits.work_budget);
  }
}

}  // namespace
}  // namespace gen
}  // namespace termilog
