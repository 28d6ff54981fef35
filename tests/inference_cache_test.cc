// Tests for the inference cache (src/engine/): the canonical inference
// key, the errored-outcome case, the dehydrate / apply round trip, and the
// engine-level guarantee that DAG-scheduled parallel inference keeps batch
// output byte-identical across --jobs values, cold and warm. The cache
// contract shared with the SCC cache is tested in content_cache_test.cc.

#include "engine/cached_outcomes.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraints/inference.h"
#include "corpus/corpus.h"
#include "engine/canonical.h"
#include "engine/engine.h"
#include "engine/report_json.h"
#include "program/modes.h"
#include "program/parser.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::vector<BatchRequest> CorpusRequests() {
  std::vector<BatchRequest> requests;
  for (const CorpusEntry& entry : Corpus()) {
    Program program = MustParse(entry.source);
    Result<std::pair<PredId, Adornment>> query =
        ParseQuerySpec(program, entry.query);
    EXPECT_TRUE(query.ok()) << entry.name << ": " << query.status().ToString();
    BatchRequest request;
    request.name = entry.name;
    request.program = std::move(program);
    request.query = query->first;
    request.adornment = query->second;
    request.options.apply_transformations = entry.needs_transformations;
    request.options.allow_negative_deltas = entry.needs_negative_deltas;
    request.options.supplied_constraints = entry.supplied_constraints;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<std::string> JsonLines(
    const std::vector<BatchRequest>& requests,
    const std::vector<BatchItemResult>& results) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(ReportToJsonLine(results[i].name, requests[i].name,
                                     results[i].status, results[i].report));
  }
  return lines;
}

// --- canonical inference key --------------------------------------------

struct InferenceFixture {
  Program program;
  std::vector<PredId> scc;
};

// The append SCC with an interning-order perturbation knob, as in
// engine_test.cc's AppendFixture.
InferenceFixture AppendFixture(const std::string& prelude) {
  InferenceFixture fx;
  fx.program = MustParse(
      prelude + "append([],Y,Y). append([H|T],Y,[H|Z]) :- append(T,Y,Z).");
  PredId append{fx.program.symbols().Lookup("append"), 3};
  fx.scc = CanonicalSccOrder(fx.program, {append});
  return fx;
}

TEST(CanonicalInferenceKeyTest, IdenticalSccSameKeyAcrossInterningOrders) {
  InferenceFixture a = AppendFixture("");
  InferenceFixture b = AppendFixture("zzz(X) :- qqq(X). qqq(a).");
  ArgSizeDb empty;
  AnalysisOptions options;
  SccCacheKey key_a = CanonicalInferenceKey(a.program, a.scc, empty, options);
  SccCacheKey key_b = CanonicalInferenceKey(b.program, b.scc, empty, options);
  EXPECT_EQ(key_a.text, key_b.text);
  EXPECT_EQ(key_a.digest, key_b.digest);
}

TEST(CanonicalInferenceKeyTest, KeySpaceIsDisjointFromSccKeys) {
  // Persisted records of both caches share one store file; the key spaces
  // must never collide (docs/persistence.md).
  InferenceFixture fx = AppendFixture("");
  ArgSizeDb db;
  AnalysisOptions options;
  SccCacheKey inference =
      CanonicalInferenceKey(fx.program, fx.scc, db, options);
  std::map<PredId, Adornment> modes;
  modes[fx.scc.front()] = {Mode::kBound, Mode::kFree, Mode::kFree};
  SccCacheKey scc = CanonicalSccKey(fx.program, fx.scc, modes, db, options);
  EXPECT_EQ(inference.text.rfind("inference-scc:", 0), 0u);
  EXPECT_NE(scc.text.rfind("inference-scc:", 0), 0u);
}

TEST(CanonicalInferenceKeyTest, CalleePolyhedraChangeKey) {
  Program program = MustParse("p([H|T]) :- q(T, U), p(U). q(X, X).");
  PredId p{program.symbols().Lookup("p"), 1};
  PredId q{program.symbols().Lookup("q"), 2};
  std::vector<PredId> scc = CanonicalSccOrder(program, {p});
  AnalysisOptions options;

  // No knowledge, the trusted spec, and a *different* trusted spec must
  // produce three distinct keys: "no entry" is not the same knowledge as
  // any explicit polyhedron.
  ArgSizeDb none;
  ArgSizeDb db1;
  db1.Set(q, ArgSizeDb::ParseSpec(2, "a1 >= a2").value());
  ArgSizeDb db2;
  db2.Set(q, ArgSizeDb::ParseSpec(2, "a1 >= 1 + a2").value());

  SccCacheKey key_none = CanonicalInferenceKey(program, scc, none, options);
  SccCacheKey key1 = CanonicalInferenceKey(program, scc, db1, options);
  SccCacheKey key2 = CanonicalInferenceKey(program, scc, db2, options);
  EXPECT_NE(key_none.text, key1.text);
  EXPECT_NE(key1.text, key2.text);
  EXPECT_NE(key_none.text, key2.text);
}

TEST(CanonicalInferenceKeyTest, InferenceOptionsAndLimitsChangeKey) {
  InferenceFixture fx = AppendFixture("");
  ArgSizeDb db;
  AnalysisOptions base;
  SccCacheKey base_key = CanonicalInferenceKey(fx.program, fx.scc, db, base);

  AnalysisOptions delay = base;
  delay.inference.widen_delay = 5;
  EXPECT_NE(base_key.text,
            CanonicalInferenceKey(fx.program, fx.scc, db, delay).text);

  AnalysisOptions budget = base;
  budget.limits.work_budget = 1000;
  EXPECT_NE(base_key.text,
            CanonicalInferenceKey(fx.program, fx.scc, db, budget).text);
}

TEST(CanonicalInferenceKeyTest, SccOnlyOptionsDoNotChangeKey) {
  // RunScc never reads modes or the negative-delta switch: two requests
  // differing only in those must share inference results.
  InferenceFixture fx = AppendFixture("");
  ArgSizeDb db;
  AnalysisOptions base;
  SccCacheKey base_key = CanonicalInferenceKey(fx.program, fx.scc, db, base);

  AnalysisOptions negdeltas = base;
  negdeltas.allow_negative_deltas = true;
  EXPECT_EQ(base_key.text,
            CanonicalInferenceKey(fx.program, fx.scc, db, negdeltas).text);
}

// --- cache ---------------------------------------------------------------

// The contract shared with the SCC cache is in content_cache_test.cc; an
// errored fixpoint is the inference-only way to be non-retainable.
TEST(InferenceCacheTest, ErroredOutcomesAreNotRetained) {
  ContentCache<CachedInferenceOutcome> cache;
  int computed = 0;
  auto compute = [&] {
    ++computed;
    CachedInferenceOutcome outcome;
    outcome.error = Status::Internal("fixpoint failed");
    return outcome;
  };
  CachedInferenceOutcome first = cache.GetOrCompute("key", compute);
  EXPECT_FALSE(first.error.ok());
  EXPECT_EQ(cache.size(), 0);
  cache.GetOrCompute("key", compute);
  EXPECT_EQ(computed, 2);
  EXPECT_TRUE(cache.SelfCheck().ok());
}

// --- dehydrate / apply ---------------------------------------------------

TEST(InferenceCacheTest, DehydrateApplyRoundTripsAcrossPrograms) {
  // Run the real fixpoint for the append SCC in one program, dehydrate,
  // apply into a second program with a different interning order, and
  // check the polyhedron is the same value.
  InferenceFixture a = AppendFixture("");
  InferenceFixture b = AppendFixture("zzz(X) :- qqq(X). qqq(a).");
  ArgSizeDb empty;
  Result<SccInferenceResult> fresh = ConstraintInference::RunScc(
      a.program, a.scc, empty, InferenceOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_FALSE(fresh->resource_limited);
  ASSERT_EQ(fresh->entries.size(), 1u);

  CachedInferenceOutcome outcome = DehydrateInferenceResult(*fresh, a.program);
  ArgSizeDb db;
  ApplyInferenceOutcome(outcome, b.program, &db);
  PredId append_b{b.program.symbols().Lookup("append"), 3};
  ASSERT_TRUE(db.Has(append_b));
  EXPECT_EQ(db.Get(append_b).ToString(), fresh->entries[0].second.ToString());
}

// --- engine integration --------------------------------------------------

// The tentpole guarantee: DAG-scheduled parallel inference changes nothing
// about the output bytes — jobs=1 and jobs=8 agree line for line, cold and
// warm, over the full corpus.
TEST(InferenceEngineTest, JobsOneAndEightByteIdenticalColdAndWarm) {
  std::vector<BatchRequest> requests = CorpusRequests();

  BatchEngine serial(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> serial_cold = JsonLines(requests, serial.Run(requests));
  std::vector<std::string> serial_warm = JsonLines(requests, serial.Run(requests));

  BatchEngine parallel(EngineOptions{/*jobs=*/8, /*use_cache=*/true});
  std::vector<std::string> parallel_cold =
      JsonLines(requests, parallel.Run(requests));
  std::vector<std::string> parallel_warm =
      JsonLines(requests, parallel.Run(requests));

  // Every recursive corpus entry exercises inference; the cold run must
  // route it through the cache, and the warm rerun must hit.
  EXPECT_GT(serial.stats().inference_tasks, 0);
  EXPECT_GT(serial.stats().inference_cache_misses, 0);
  EXPECT_GT(serial.stats().inference_cache_hits, 0);
  EXPECT_GT(parallel.stats().inference_cache_hits, 0);

  ASSERT_EQ(serial_cold.size(), parallel_cold.size());
  for (size_t i = 0; i < serial_cold.size(); ++i) {
    EXPECT_EQ(serial_cold[i], parallel_cold[i]) << requests[i].name;
    EXPECT_EQ(serial_cold[i], serial_warm[i]) << requests[i].name;
    EXPECT_EQ(serial_cold[i], parallel_warm[i]) << requests[i].name;
  }
}

// A warm rerun skips inference entirely for every SCC the cache retained:
// the second Run adds hits, not misses.
TEST(InferenceEngineTest, WarmRunServesInferenceFromCache) {
  std::vector<BatchRequest> requests = CorpusRequests();
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  engine.Run(requests);
  int64_t cold_misses = engine.stats().inference_cache_misses;
  EXPECT_GT(cold_misses, 0);
  engine.Run(requests);
  EXPECT_EQ(engine.stats().inference_cache_misses, cold_misses);
  EXPECT_GE(engine.stats().inference_cache_hits, cold_misses);
  EXPECT_TRUE(engine.SelfCheck().ok());
}

// Disabling the cache must be output-invisible (every task recomputes).
TEST(InferenceEngineTest, UncachedInferenceMatchesCached) {
  std::vector<BatchRequest> requests = CorpusRequests();

  BatchEngine uncached(EngineOptions{/*jobs=*/4, /*use_cache=*/false});
  std::vector<std::string> uncached_lines =
      JsonLines(requests, uncached.Run(requests));
  EXPECT_EQ(uncached.stats().inference_cache_hits, 0);
  EXPECT_EQ(uncached.stats().inference_cache_misses, 0);
  EXPECT_GT(uncached.stats().inference_tasks, 0);

  BatchEngine cached(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<std::string> cached_lines =
      JsonLines(requests, cached.Run(requests));

  ASSERT_EQ(uncached_lines.size(), cached_lines.size());
  for (size_t i = 0; i < cached_lines.size(); ++i) {
    EXPECT_EQ(uncached_lines[i], cached_lines[i]) << requests[i].name;
  }
}

// Regression for a double-push race: the prep task's initial-readiness
// loop used to read the mutable deps_left counters while already-pushed
// source nodes were running. On a warm cache a source node completes
// almost instantly, decrements a dependent to zero, and pushes it — and
// the prep loop, reading that zero, pushed the same node again. The
// duplicate decrements made pending_inference hit zero early, finalizing
// (and freeing plan state) while nodes were still outstanding. Warm
// repeats at jobs=8 over the corpus (multi-SCC dependency chains, instant
// hits) reproduced it within a few iterations; the engine's internal
// CHECKs abort on the double-finalize or the push-after-close.
TEST(InferenceEngineTest, WarmRepeatsAtHighJobsDoNotDoubleScheduleNodes) {
  std::vector<BatchRequest> requests = CorpusRequests();
  BatchEngine engine(EngineOptions{/*jobs=*/8, /*use_cache=*/true});
  std::vector<std::string> baseline = JsonLines(requests, engine.Run(requests));
  for (int repeat = 0; repeat < 5; ++repeat) {
    std::vector<std::string> warm = JsonLines(requests, engine.Run(requests));
    ASSERT_EQ(baseline.size(), warm.size());
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_EQ(baseline[i], warm[i]) << requests[i].name;
    }
  }
  EXPECT_TRUE(engine.SelfCheck().ok());
}

// run_inference=false must skip the whole inference DAG: no tasks, no
// cache traffic, and verdicts that match a one-request Analyze under the
// same option.
TEST(InferenceEngineTest, RunInferenceOffSchedulesNoTasks) {
  std::vector<BatchRequest> requests = CorpusRequests();
  for (BatchRequest& request : requests) {
    request.options.run_inference = false;
  }
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<BatchItemResult> results = engine.Run(requests);
  EXPECT_EQ(engine.stats().inference_tasks, 0);
  EXPECT_EQ(engine.stats().inference_cache_misses, 0);

  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].status.ok()) continue;
    TerminationAnalyzer analyzer(requests[i].options);
    Result<TerminationReport> serial = analyzer.Analyze(
        requests[i].program, requests[i].query, requests[i].adornment);
    ASSERT_TRUE(serial.ok()) << requests[i].name;
    EXPECT_EQ(serial->proved, results[i].report.proved) << requests[i].name;
  }
}

}  // namespace
}  // namespace termilog
