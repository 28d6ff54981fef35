// Tests for the parallel batch-analysis engine (src/engine/): the
// canonical key derivation, the SCC outcome round trip, the request
// planner's query derivation, and — the
// load-bearing guarantee — byte-identical batch output for every --jobs
// value over the full corpus. The content cache itself is tested in
// content_cache_test.cc.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "engine/cached_outcomes.h"
#include "engine/canonical.h"
#include "engine/report_json.h"
#include "engine/serve.h"
#include "gen/gen.h"
#include "program/modes.h"
#include "program/parser.h"
#include "rational/bigint.h"
#include "util/governor.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// One request per corpus entry, exactly as corpus_report builds them.
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

std::vector<std::string> JsonLines(const std::vector<BatchRequest>& requests,
                                   const std::vector<BatchItemResult>& results) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(ReportToJsonLine(results[i].name, requests[i].name,
                                     results[i].status, results[i].report));
  }
  return lines;
}

// The acceptance criterion for the whole subsystem: a parallel batch run
// produces byte-for-byte the same report stream as a serial one, over the
// complete corpus. This is also the test the TSan build runs.
TEST(EngineDeterminism, JobsOneAndEightByteIdenticalOverCorpus) {
  std::vector<BatchRequest> requests = CorpusRequests();

  BatchEngine serial(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> serial_lines =
      JsonLines(requests, serial.Run(requests));

  BatchEngine parallel(EngineOptions{/*jobs=*/8, /*use_cache=*/true});
  std::vector<std::string> parallel_lines =
      JsonLines(requests, parallel.Run(requests));

  ASSERT_EQ(serial_lines.size(), parallel_lines.size());
  for (size_t i = 0; i < serial_lines.size(); ++i) {
    EXPECT_EQ(serial_lines[i], parallel_lines[i]) << requests[i].name;
  }
}

// Caching must be invisible in the output: a cold run without the cache
// matches a cold run with it, and a warm rerun on the same engine matches
// again while being served (at least partly) from memory.
TEST(EngineDeterminism, CacheIsOutputInvisibleAndWarmRunsHit) {
  std::vector<BatchRequest> requests = CorpusRequests();

  BatchEngine uncached(EngineOptions{/*jobs=*/4, /*use_cache=*/false});
  std::vector<std::string> uncached_lines =
      JsonLines(requests, uncached.Run(requests));
  EXPECT_EQ(uncached.stats().cache_hits, 0);
  EXPECT_EQ(uncached.stats().cache_misses, 0);

  BatchEngine cached(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<std::string> cold_lines = JsonLines(requests, cached.Run(requests));
  int64_t cold_misses = cached.stats().cache_misses;
  EXPECT_GT(cold_misses, 0);

  // Warm rerun: every deterministic (non-resource-limited) SCC is already
  // stored, so no new misses accrue beyond re-computation of entries the
  // cache refused to retain (resource-limited outcomes).
  std::vector<std::string> warm_lines = JsonLines(requests, cached.Run(requests));
  EXPECT_GT(cached.stats().cache_hits, 0);

  ASSERT_EQ(uncached_lines.size(), cold_lines.size());
  for (size_t i = 0; i < cold_lines.size(); ++i) {
    EXPECT_EQ(uncached_lines[i], cold_lines[i]) << requests[i].name;
    EXPECT_EQ(cold_lines[i], warm_lines[i]) << requests[i].name;
  }
}

// Submit is thread-safe and the one way work enters the pool: several
// threads submitting the corpus into one engine at once get, request for
// request, the report lines a serial Run produces.
TEST(EngineTest, ConcurrentSubmitMatchesRun) {
  std::vector<BatchRequest> requests = CorpusRequests();
  BatchEngine serial(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> expected =
      JsonLines(requests, serial.Run(requests));

  constexpr size_t kThreads = 3;
  std::mutex mu;
  std::condition_variable answered;
  std::vector<std::vector<std::string>> lines(
      kThreads, std::vector<std::string>(requests.size()));
  size_t done = 0;
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < requests.size(); ++i) {
        engine.Submit(requests[i], [&, t, i](BatchItemResult result) {
          std::string line = ReportToJsonLine(result.name, requests[i].name,
                                              result.status, result.report);
          std::lock_guard<std::mutex> lock(mu);
          lines[t][i] = std::move(line);
          ++done;
          answered.notify_all();
        });
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    answered.wait(lock, [&] { return done == kThreads * requests.size(); });
  }
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(lines[t][i], expected[i]) << requests[i].name;
    }
  }
  EXPECT_EQ(engine.stats().requests,
            static_cast<int64_t>(kThreads * requests.size()));
}

// The engine must agree with the serial TerminationAnalyzer entry point on
// every verdict (proved / not / resource-limited) over the corpus.
TEST(EngineTest, VerdictsMatchSerialAnalyzer) {
  std::vector<BatchRequest> requests = CorpusRequests();
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<BatchItemResult> results = engine.Run(requests);

  for (size_t i = 0; i < requests.size(); ++i) {
    TerminationAnalyzer analyzer(requests[i].options);
    Result<TerminationReport> serial = analyzer.Analyze(
        requests[i].program, requests[i].query, requests[i].adornment);
    ASSERT_EQ(serial.ok(), results[i].status.ok()) << requests[i].name;
    if (!serial.ok()) continue;
    EXPECT_EQ(serial->proved, results[i].report.proved) << requests[i].name;
    EXPECT_EQ(serial->resource_limited, results[i].report.resource_limited)
        << requests[i].name;
  }
}

TEST(EngineTest, StreamsResultsInRequestOrder) {
  std::vector<BatchRequest> requests = CorpusRequests();
  BatchEngine engine(EngineOptions{/*jobs=*/8, /*use_cache=*/true});
  std::vector<std::string> seen;
  engine.Run(requests, [&](const BatchItemResult& item) {
    seen.push_back(item.name);
  });
  ASSERT_EQ(seen.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(seen[i], requests[i].name);
  }
}

TEST(EngineTest, PreparationFailureIsIsolatedToItsRequest) {
  Program good = MustParse("append([],Y,Y). append([H|T],Y,[H|Z]) :- append(T,Y,Z).");
  Result<std::pair<PredId, Adornment>> query =
      ParseQuerySpec(good, "append(b,f,f)");
  ASSERT_TRUE(query.ok());

  BatchRequest ok_request;
  ok_request.name = "ok";
  ok_request.program = good;
  ok_request.query = query->first;
  ok_request.adornment = query->second;

  BatchRequest bad_request = ok_request;
  bad_request.name = "bad";
  // A malformed supplied-constraint spec: preparation fails.
  bad_request.options.supplied_constraints.emplace_back("append/3",
                                                        "not a constraint");

  BatchEngine engine;
  std::vector<BatchItemResult> results =
      engine.Run({bad_request, ok_request});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_TRUE(results[1].report.proved);
}

// --- canonical key -------------------------------------------------------

struct KeyFixture {
  Program program;
  std::vector<PredId> scc;
  std::map<PredId, Adornment> modes;
  ArgSizeDb db;
};

// Builds the append SCC key fixture from `source`; `prelude` lets a test
// perturb symbol interning order without changing content.
KeyFixture AppendFixture(const std::string& prelude) {
  KeyFixture fx;
  fx.program = MustParse(
      prelude + "append([],Y,Y). append([H|T],Y,[H|Z]) :- append(T,Y,Z).");
  PredId append{fx.program.symbols().Lookup("append"), 3};
  fx.scc = CanonicalSccOrder(fx.program, {append});
  fx.modes[append] = {Mode::kBound, Mode::kFree, Mode::kFree};
  return fx;
}

TEST(CanonicalKeyTest, IdenticalSccSameKeyAcrossInterningOrders) {
  // The same SCC content, but the second program interns unrelated symbols
  // first, shifting every symbol id. The canonical key must not notice.
  KeyFixture a = AppendFixture("");
  KeyFixture b = AppendFixture("zzz(X) :- qqq(X). qqq(a).");
  AnalysisOptions options;
  SccCacheKey key_a = CanonicalSccKey(a.program, a.scc, a.modes, a.db, options);
  SccCacheKey key_b = CanonicalSccKey(b.program, b.scc, b.modes, b.db, options);
  EXPECT_EQ(key_a.text, key_b.text);
  EXPECT_EQ(key_a.digest, key_b.digest);
}

TEST(CanonicalKeyTest, ChangedCalleeConstraintsChangeKey) {
  Program program = MustParse(
      "p([H|T]) :- q(T, U), p(U). q(X, X).");
  PredId p{program.symbols().Lookup("p"), 1};
  PredId q{program.symbols().Lookup("q"), 2};
  std::vector<PredId> scc = CanonicalSccOrder(program, {p});
  std::map<PredId, Adornment> modes;
  modes[p] = {Mode::kBound};
  modes[q] = {Mode::kBound, Mode::kFree};
  AnalysisOptions options;

  ArgSizeDb db1;
  db1.Set(q, ArgSizeDb::ParseSpec(2, "a1 >= a2").value());
  ArgSizeDb db2;
  db2.Set(q, ArgSizeDb::ParseSpec(2, "a1 >= 1 + a2").value());

  SccCacheKey key1 = CanonicalSccKey(program, scc, modes, db1, options);
  SccCacheKey key2 = CanonicalSccKey(program, scc, modes, db2, options);
  EXPECT_NE(key1.text, key2.text);
}

TEST(CanonicalKeyTest, ResultAffectingOptionsChangeKey) {
  KeyFixture fx = AppendFixture("");
  AnalysisOptions base;
  SccCacheKey base_key =
      CanonicalSccKey(fx.program, fx.scc, fx.modes, fx.db, base);

  AnalysisOptions negdeltas = base;
  negdeltas.allow_negative_deltas = true;
  EXPECT_NE(base_key.text,
            CanonicalSccKey(fx.program, fx.scc, fx.modes, fx.db, negdeltas)
                .text);

  AnalysisOptions budget = base;
  budget.limits.work_budget = 1000;
  EXPECT_NE(base_key.text,
            CanonicalSccKey(fx.program, fx.scc, fx.modes, fx.db, budget).text);
}

TEST(CanonicalKeyTest, DifferentAdornmentsChangeKey) {
  KeyFixture fx = AppendFixture("");
  AnalysisOptions options;
  SccCacheKey bff =
      CanonicalSccKey(fx.program, fx.scc, fx.modes, fx.db, options);
  fx.modes.begin()->second = {Mode::kBound, Mode::kBound, Mode::kFree};
  SccCacheKey bbf =
      CanonicalSccKey(fx.program, fx.scc, fx.modes, fx.db, options);
  EXPECT_NE(bff.text, bbf.text);
}

// --- rehydration ---------------------------------------------------------

TEST(SccCacheTest, DehydrateRehydrateRoundTripsAcrossPrograms) {
  // Compute the append SCC report in one program, rehydrate it into a
  // second program with a different interning order, and check the result
  // renders identically.
  KeyFixture a = AppendFixture("");
  KeyFixture b = AppendFixture("zzz(X) :- qqq(X). qqq(a).");
  TerminationAnalyzer analyzer{AnalysisOptions()};
  ResourceGovernor governor;
  SccReport fresh = analyzer.AnalyzeScc(a.program, a.scc, a.modes, a.db,
                                        /*has_conflict=*/false, &governor);
  ASSERT_EQ(fresh.status, SccStatus::kProved);

  CachedSccOutcome outcome = DehydrateSccReport(fresh, a.program);
  SccReport rehydrated = RehydrateSccReport(outcome, b.program, b.scc);
  EXPECT_EQ(rehydrated.status, fresh.status);
  ASSERT_EQ(rehydrated.certificate.theta.size(), fresh.certificate.theta.size());
  EXPECT_EQ(rehydrated.reduced_constraints, fresh.reduced_constraints);
  EXPECT_EQ(rehydrated.notes, fresh.notes);
  // Theta coefficients survive the PredId translation.
  EXPECT_EQ(rehydrated.certificate.theta.begin()->second,
            fresh.certificate.theta.begin()->second);
}

// --- governor thread isolation (satellite: per-task governors) -----------

TEST(GovernorThreads, LimbHighWaterIsPerThread) {
  // A worker thread doing heavy BigInt arithmetic must not inflate the limb
  // high-water observed by a governor on this thread (the mark is
  // thread-local and reset by every governor's constructor).
  std::thread heavy([] {
    ResourceGovernor worker_governor;
    BigInt big = 1;
    for (int i = 0; i < 200; ++i) big *= BigInt(1000000007);
    EXPECT_GT(worker_governor.Spend().bigint_limb_high_water, 10);
  });
  heavy.join();

  ResourceGovernor governor;
  BigInt small = BigInt(7) * BigInt(9);
  GovernorSpend spend = governor.Spend();
  EXPECT_LE(spend.bigint_limb_high_water, 2);
}

// The request planner every front end shares (src/engine/serve.h): which
// queries an entry asks.
TEST(PlannerTest, EntryQueriesPreferTheQueryThenModeDirectivesInOrder) {
  gen::ManifestEntry entry;
  entry.name = "app";
  entry.source =
      ":- mode(app(b,f,f)). :- mode(app(f,f,b)). "
      "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";
  Result<Program> program = LoadProgram(entry);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Result<std::vector<std::string>> modes = EntryQueries(entry, *program);
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(*modes, (std::vector<std::string>{"app(b,f,f)", "app(f,f,b)"}));

  entry.query = "app(f,b,f)";
  Result<std::vector<std::string>> named = EntryQueries(entry, *program);
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(*named, std::vector<std::string>{"app(f,b,f)"});

  gen::ManifestEntry modeless;
  modeless.name = "len";
  modeless.source = "len([],0). len([_|T],s(N)) :- len(T,N).";
  Result<Program> modeless_program = LoadProgram(modeless);
  ASSERT_TRUE(modeless_program.ok());
  Result<std::vector<std::string>> none =
      EntryQueries(modeless, *modeless_program);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().message(),
            "no \"query\" given and no :- mode(...) directive in the program");
}

}  // namespace
}  // namespace termilog
