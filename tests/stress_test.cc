// Differential stress harness over generated workloads (ctest label
// "stress"; docs/generator.md): the engine's verdicts must match the
// generator's declared expectations request for request, and the JSONL
// output stream must be byte-identical across jobs levels.
//
// Size scales with the TERMILOG_STRESS_REQUESTS env var so one binary
// serves two roles: the default (200 requests, a few seconds) rides in
// tier-1 behind the "stress" label, and scripts/check.sh --stress reruns
// it at full size alongside the 10k CLI harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "gen/gen.h"

namespace termilog {
namespace {

int StressRequestCount() {
  const char* env = std::getenv("TERMILOG_STRESS_REQUESTS");
  if (env == nullptr || *env == '\0') return 200;
  int value = std::atoi(env);
  return value >= 1 ? value : 200;
}

gen::GeneratedWorkload MixedWorkload(uint64_t seed, int count,
                                     int dup_percent = 0) {
  gen::GenParams params;
  params.seed = seed;
  params.count = count;
  params.mix_proved = 70;
  params.mix_not_proved = 25;
  params.mix_resource_limit = 5;
  params.dup_percent = dup_percent;
  params.name_prefix = "stress";
  return gen::Generate(params);
}

// The full JSONL stream a --batch run would emit for these results, via
// the shared serializer.
std::string ResultStream(const std::vector<BatchItemResult>& results,
                         const gen::GeneratedWorkload& workload) {
  std::string out;
  for (size_t i = 0; i < results.size(); ++i) {
    out += ReportToJsonLine(results[i].name, workload.requests[i].query,
                            results[i].status, results[i].report);
    out += '\n';
  }
  return out;
}

TEST(StressTest, EngineVerdictsMatchGeneratorDeclarations) {
  int count = StressRequestCount();
  gen::GeneratedWorkload workload = MixedWorkload(1234, count);
  Result<std::vector<BatchRequest>> requests =
      gen::WorkloadToBatchRequests(workload);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();

  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<BatchItemResult> results = engine.Run(*requests);
  ASSERT_EQ(results.size(), workload.requests.size());

  int mismatches = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchItemResult& item = results[i];
    const gen::GeneratedRequest& expected = workload.requests[i];
    ASSERT_TRUE(item.status.ok())
        << item.name << ": " << item.status.ToString();
    if (!gen::OutcomeMatchesExpect(expected.expect, item.report.proved,
                                   item.report.resource_limited)) {
      ++mismatches;
      ADD_FAILURE() << item.name << " declared "
                    << gen::ExpectedVerdictName(expected.expect)
                    << " but got proved=" << item.report.proved
                    << " resource_limited=" << item.report.resource_limited
                    << "\n"
                    << expected.source;
    }
    // Service latency is measured for every completed request.
    EXPECT_GE(item.latency_us, 0) << item.name;
  }
  EXPECT_EQ(mismatches, 0) << "out of " << results.size() << " requests";

  Status cache_check = engine.SelfCheck();
  EXPECT_TRUE(cache_check.ok()) << cache_check.ToString();
}

TEST(StressTest, OutputStreamByteIdenticalAcrossJobsLevels) {
  // The differential pair from the issue: jobs=1 vs jobs=8 over the same
  // generated manifest must render byte-identical JSONL.
  int count = StressRequestCount();
  gen::GeneratedWorkload workload = MixedWorkload(777, count);
  Result<std::vector<BatchRequest>> requests =
      gen::WorkloadToBatchRequests(workload);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();

  BatchEngine serial(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::string serial_stream = ResultStream(serial.Run(*requests), workload);

  BatchEngine parallel(EngineOptions{/*jobs=*/8, /*use_cache=*/true});
  std::string parallel_stream =
      ResultStream(parallel.Run(*requests), workload);

  ASSERT_EQ(serial_stream.size(), parallel_stream.size());
  EXPECT_TRUE(serial_stream == parallel_stream)
      << "jobs=1 and jobs=8 streams diverge";
}

TEST(StressTest, DuplicatedRequestsAreServedByTheCache) {
  // dup=40: a cache-friendly workload. Repeated programs must hit the
  // content-addressed cache without changing any verdict.
  gen::GeneratedWorkload workload =
      MixedWorkload(55, std::min(StressRequestCount(), 400), 40);
  Result<std::vector<BatchRequest>> requests =
      gen::WorkloadToBatchRequests(workload);
  ASSERT_TRUE(requests.ok());

  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<BatchItemResult> results = engine.Run(*requests);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].name;
    EXPECT_TRUE(gen::OutcomeMatchesExpect(workload.requests[i].expect,
                                          results[i].report.proved,
                                          results[i].report.resource_limited))
        << results[i].name;
  }
  EXPECT_GT(engine.stats().cache_hits, 0)
      << "a dup=40 workload must produce cache hits";
}

}  // namespace
}  // namespace termilog
