// The capture-rule reordering search (paper introduction / [Ull85]).

#include "transform/reorder.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "interp/sld.h"
#include "program/parser.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

BatchRequest Request(const Program& program, const std::string& query,
                     AnalysisOptions options = AnalysisOptions()) {
  Result<std::pair<PredId, Adornment>> parsed = ParseQuerySpec(program, query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return BatchRequest{query, program, parsed->first, parsed->second,
                      std::move(options)};
}

// The search on an engine of its own.
Result<ReorderResult> Reorder(const Program& program, const std::string& query,
                              const ReorderOptions& options = ReorderOptions(),
                              AnalysisOptions analysis = AnalysisOptions()) {
  BatchEngine engine;
  return FindTerminatingOrder(engine, Request(program, query, analysis),
                              options);
}

// Partition after the recursive calls: the recursive arguments are unbound
// and unconstrained, so the search must move part/4 to the front.
Program ScrambledQuicksort() {
  return MustParse(R"(
    qs([], []).
    qs([X|Xs], S) :- qs(L, SL), qs(G, SG), part(X, Xs, L, G),
                     append(SL, [X|SG], S).
    part(P, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- P < X, part(P, Xs, L, G).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
}

TEST(ReorderTest, AlreadyProvedIsUntouched) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  Result<ReorderResult> r = Reorder(p, "append(b,f,f)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved);
  EXPECT_EQ(r->attempts, 1);
  EXPECT_TRUE(r->log.empty());
}

TEST(ReorderTest, MovesProducerBeforeRecursiveCall) {
  // As written, the recursive tc(Z,Y)... wait: t(X) :- t(Y), edge(X,Y).
  // calls t with an UNBOUND argument; moving edge(X,Y) first binds Y and
  // the supplied well-founded edge constraint proves termination.
  Program p = MustParse("t(X) :- t(Y), edge(X, Y). t(X) :- leafish(X).");
  AnalysisOptions analysis;
  analysis.supplied_constraints = {{"edge/2", "a1 >= 1 + a2"}};
  Result<ReorderResult> r = Reorder(p, "t(b)", ReorderOptions(), analysis);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved) << r->report.ToString();
  ASSERT_EQ(r->log.size(), 1u);
  EXPECT_NE(r->log[0].find("t(X) :- edge(X,Y), t(Y)."), std::string::npos)
      << r->log[0];
}

TEST(ReorderTest, QuicksortWithPartitionLast) {
  ReorderOptions options;
  options.max_attempts = 128;
  Result<ReorderResult> r = Reorder(ScrambledQuicksort(), "qs(b,f)", options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved) << r->report.ToString();
  EXPECT_EQ(r->attempts, 13);
  // The reordered program must actually run top-down.
  Result<SldResult> run = RunQuery(r->program, "qs([3,1,2],S)");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome, SldOutcome::kExhausted);
  EXPECT_EQ(run->num_solutions, 1u);
}

TEST(ReorderTest, RepeatedSearchOnOneEngineIsServedFromTheCaches) {
  // Every attempt is a request on the caller's engine, so a second search
  // computes nothing: each SCC and inference node is a cache hit, and the
  // search takes the same moves to the same report.
  BatchEngine engine;
  BatchRequest request = Request(ScrambledQuicksort(), "qs(b,f)");
  ReorderOptions options;
  options.max_attempts = 128;
  Result<ReorderResult> first = FindTerminatingOrder(engine, request, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->proved) << first->report.ToString();
  const EngineStats cold = engine.stats();
  EXPECT_EQ(cold.requests, first->attempts);
  // Attempts share SCCs they leave unchanged, so the search computes
  // fewer outcomes than its attempts look up.
  EXPECT_LT(cold.cache_misses, cold.scc_tasks);
  EXPECT_LT(cold.inference_cache_misses, cold.inference_tasks);

  Result<ReorderResult> second =
      FindTerminatingOrder(engine, request, options);
  ASSERT_TRUE(second.ok());
  const EngineStats warm = engine.stats();
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(warm.inference_cache_misses, cold.inference_cache_misses);
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_EQ(second->attempts, first->attempts);
  EXPECT_EQ(second->log, first->log);
  EXPECT_EQ(second->report.ToString(), first->report.ToString());
}

TEST(ReorderTest, HopelessProgramReportsNotProved) {
  Program p = MustParse("q(X) :- q(f(X)), e(X).");
  Result<ReorderResult> r = Reorder(p, "q(b)");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->proved);
  EXPECT_GE(r->attempts, 2);  // it did try the other order
}

TEST(ReorderTest, AttemptBudgetRespected) {
  Program p = MustParse(
      "q(X) :- a(X), b(X), c(X), d(X), q(f(X)).");
  ReorderOptions options;
  options.max_attempts = 5;
  Result<ReorderResult> r = Reorder(p, "q(b)", options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->proved);
  EXPECT_LE(r->attempts, 5);
}

TEST(ReorderTest, LongBodiesSkipped) {
  Program p = MustParse(
      "q(X) :- a(X), b(X), c(X), d(X), e(X), f(X), q(g(X)).");
  ReorderOptions options;
  options.max_body_length = 5;
  Result<ReorderResult> r = Reorder(p, "q(b)", options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->proved);
  EXPECT_EQ(r->attempts, 1);  // 7-literal body is out of scope
}

}  // namespace
}  // namespace termilog
