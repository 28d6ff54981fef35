#include "core/analyzer.h"

#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "engine/engine.h"
#include "engine/serve.h"
#include "gen/gen.h"
#include "program/parser.h"
#include "util/failpoint.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

TerminationReport MustAnalyze(const Program& program, const char* query,
                              AnalysisOptions options = AnalysisOptions()) {
  TerminationAnalyzer analyzer(std::move(options));
  Result<TerminationReport> report = analyzer.Analyze(program, query);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// One engine request per `:- mode` directive, planned as the CLI, --batch
// and serve plan them, run on one engine; results in directive order.
std::vector<BatchItemResult> RunDeclaredModes(const Program& program) {
  const gen::ManifestEntry entry;
  Result<std::vector<std::string>> queries = EntryQueries(entry, program);
  EXPECT_TRUE(queries.ok()) << queries.status().ToString();
  std::vector<BatchRequest> requests;
  for (const std::string& query : *queries) {
    Result<BatchRequest> request =
        PlanRequest(entry, query, program, query, AnalysisOptions());
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    requests.push_back(std::move(request).value());
  }
  BatchEngine engine;
  return engine.Run(requests);
}

TEST(AnalyzerTest, AppendProved) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  TerminationReport r = MustAnalyze(p, "append(b,f,f)");
  EXPECT_TRUE(r.proved) << r.ToString();
  ASSERT_EQ(r.sccs.size(), 1u);
  EXPECT_EQ(r.sccs[0].status, SccStatus::kProved);
  // The certificate assigns a positive weight to the single bound arg.
  const auto& theta = r.sccs[0].certificate.theta.begin()->second;
  ASSERT_EQ(theta.size(), 1u);
  EXPECT_GT(theta[0].sign(), 0);
}

TEST(AnalyzerTest, NonRecursiveProgramTriviallyProved) {
  Program p = MustParse("f(X) :- g(X). g(X) :- e(X).");
  TerminationReport r = MustAnalyze(p, "f(b)");
  EXPECT_TRUE(r.proved);
  for (const SccReport& scc : r.sccs) {
    EXPECT_EQ(scc.status, SccStatus::kNonRecursive);
  }
}

TEST(AnalyzerTest, GrowRejectedWithNonPositiveCycle) {
  Program p = MustParse("q(X) :- q(f(X)).");
  TerminationReport r = MustAnalyze(p, "q(b)");
  EXPECT_FALSE(r.proved);
  ASSERT_EQ(r.sccs.size(), 1u);
  EXPECT_EQ(r.sccs[0].status, SccStatus::kNonPositiveCycle);
}

TEST(AnalyzerTest, ZeroArityLoopRejected) {
  Program p = MustParse("p :- p.");
  TerminationReport r = MustAnalyze(p, "p()");
  EXPECT_FALSE(r.proved);
  EXPECT_EQ(r.sccs[0].status, SccStatus::kNonPositiveCycle);
}

TEST(AnalyzerTest, AdornmentCloningRepairsConflicts) {
  // perm uses append under two adornments; the analyzer must clone and
  // still prove termination.
  Program p = MustParse(R"(
    perm([], []).
    perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  TerminationReport r = MustAnalyze(p, "perm(b,f)");
  EXPECT_TRUE(r.proved) << r.ToString();
  // Two append clones must exist in the analyzed program.
  int clones = 0;
  for (const auto& [pred, adornment] : r.modes) {
    (void)adornment;
    std::string name =
        r.analyzed_program.symbols().Name(pred.symbol);
    if (name.rfind("append__", 0) == 0) ++clones;
  }
  EXPECT_EQ(clones, 2);
}

TEST(AnalyzerTest, SuppliedConstraintsWithoutInference) {
  // The paper's manual mode (Section 8): constraints supplied, inference
  // off.
  Program p = MustParse(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
  )");
  AnalysisOptions options;
  options.run_inference = false;
  options.supplied_constraints = {{"edge/2", "a1 >= 1 + a2"}};
  TerminationReport r = MustAnalyze(p, "tc(b,f)", options);
  EXPECT_TRUE(r.proved) << r.ToString();
}

TEST(AnalyzerTest, SuppliedArityMustBeDigitsWithinInt) {
  Program p = MustParse("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
  for (const char* spec : {"app/", "app/4294967299", "app/2147483648"}) {
    AnalysisOptions options;
    options.supplied_constraints = {{spec, "a1 = 7"}};
    Result<TerminationReport> report =
        TerminationAnalyzer(options).Analyze(p, "app(b,f,f)");
    ASSERT_FALSE(report.ok()) << spec;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(AnalyzerTest, SuppliedConstraintsForAnUnmentionedPredicateAreSkipped) {
  Program p = MustParse("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
  AnalysisOptions options;
  // Valid specs, but no app/5 and no nosuch/1 occur: a polyhedron for
  // either would constrain nothing (and one of a large arity N holds N^2
  // rationals).
  options.supplied_constraints = {{"app/5", "a1 = 7"},
                                  {"nosuch/1", "a1 >= 0"}};
  TerminationReport r = MustAnalyze(p, "app(b,f,f)", options);
  EXPECT_TRUE(r.proved) << r.ToString();
  int skipped = 0;
  for (const std::string& note : r.notes) {
    if (note.find("skipped: the program never mentions") !=
        std::string::npos) {
      ++skipped;
    }
  }
  EXPECT_EQ(skipped, 2);
  const std::string constraints = r.arg_sizes.ToString(r.analyzed_program);
  EXPECT_EQ(constraints.find("app/5"), std::string::npos) << constraints;
  EXPECT_EQ(constraints.find("nosuch"), std::string::npos) << constraints;
}

TEST(AnalyzerTest, UnknownEdbNotProved) {
  Program p = MustParse(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
  )");
  TerminationReport r = MustAnalyze(p, "tc(b,f)");
  EXPECT_FALSE(r.proved);
  // With nothing known about edge, a = b = c = 0 for the recursive pair, so
  // the paper's step-1 rule forces delta_tc,tc = 0: a zero-weight self
  // cycle ("strong evidence of nontermination" -- indeed tc diverges on
  // cyclic EDB graphs).
  EXPECT_EQ(r.sccs.back().status, SccStatus::kNonPositiveCycle);
}

TEST(AnalyzerTest, CertificateValidationRuns) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  AnalysisOptions options;
  options.validate_certificates = true;
  TerminationReport r = MustAnalyze(p, "append(b,f,f)", options);
  ASSERT_TRUE(r.proved);
  bool noted = false;
  for (const std::string& note : r.sccs[0].notes) {
    if (note.find("validated") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(AnalyzerTest, NegativeDeltaModeProvesUpdown) {
  Program p = MustParse("a(X) :- b(g(X)). b(g(g(X))) :- a(X).");
  // Integral mode fails...
  TerminationReport integral = MustAnalyze(p, "a(b)");
  EXPECT_FALSE(integral.proved);
  // ...Appendix C mode succeeds.
  AnalysisOptions options;
  options.allow_negative_deltas = true;
  TerminationReport negative = MustAnalyze(p, "a(b)", options);
  EXPECT_TRUE(negative.proved) << negative.ToString();
  ASSERT_EQ(negative.sccs.size(), 1u);
  EXPECT_TRUE(negative.sccs[0].used_negative_deltas);
  // Some delta must actually be negative.
  bool has_negative = false;
  for (const auto& [edge, value] : negative.sccs[0].certificate.delta) {
    (void)edge;
    if (value.sign() < 0) has_negative = true;
  }
  EXPECT_TRUE(has_negative);
}

TEST(AnalyzerTest, QuerySpecErrors) {
  Program p = MustParse("p(a).");
  TerminationAnalyzer analyzer;
  EXPECT_FALSE(analyzer.Analyze(p, "nosuch(b)").ok());
  EXPECT_FALSE(analyzer.Analyze(p, "p(b,b)").ok());  // wrong arity
  EXPECT_FALSE(analyzer.Analyze(p, "p(x)").ok());    // bad mode letter
  EXPECT_FALSE(analyzer.Analyze(p, "p").ok());       // missing parens
}

TEST(AnalyzerTest, ReportToStringMentionsVerdictAndModes) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  TerminationReport r = MustAnalyze(p, "append(b,f,f)");
  std::string text = r.ToString();
  EXPECT_NE(text.find("TERMINATES"), std::string::npos);
  EXPECT_NE(text.find("append/3"), std::string::npos);
  EXPECT_NE(text.find("bff"), std::string::npos);
  EXPECT_NE(text.find("PROVED"), std::string::npos);
}

TEST(AnalyzerTest, MultipleSccsAnalyzedCalleesFirst) {
  Program p = MustParse(R"(
    outer([X|Xs]) :- inner(X), outer(Xs).
    inner(f(Y)) :- inner(Y).
    inner(a).
  )");
  TerminationReport r = MustAnalyze(p, "outer(b)");
  EXPECT_TRUE(r.proved);
  ASSERT_EQ(r.sccs.size(), 2u);
  // Callee SCC (inner) first.
  EXPECT_EQ(r.analyzed_program.symbols().Name(r.sccs[0].preds[0].symbol),
            "inner");
}

TEST(AnalyzerTest, BoundArgumentChoiceMatters) {
  // Terminates with the first argument bound, not provable with only the
  // second bound.
  Program p = MustParse("walk([X|Xs], Y) :- walk(Xs, f(Y)).");
  TerminationReport with_first = MustAnalyze(p, "walk(b,f)");
  EXPECT_TRUE(with_first.proved);
  TerminationReport with_second = MustAnalyze(p, "walk(f,b)");
  EXPECT_FALSE(with_second.proved);
}

TEST(AnalyzerTest, DeclaredModesRunEachDirective) {
  // append terminates with the first argument bound AND with the third
  // bound (different adornments, different certificates); with all free it
  // enumerates forever.
  Program p = MustParse(R"(
    :- mode(append(b, f, f)).
    :- mode(append(f, f, b)).
    :- mode(append(f, f, f)).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  std::vector<BatchItemResult> results = RunDeclaredModes(p);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "append(b,f,f)");
  for (const BatchItemResult& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_TRUE(results[0].report.proved);   // bff: first arg descends
  EXPECT_TRUE(results[1].report.proved);   // ffb: third arg descends
  EXPECT_FALSE(results[2].report.proved);  // fff: nothing bound
}

TEST(AnalyzerTest, RepeatedAnalyzeIsByteIdentical) {
  // The transforms of Example A.1 name the split predicates; a second
  // Analyze of the same Program must name them alike and leave the
  // caller's symbol table as it was.
  const CorpusEntry* entry = FindCorpusEntry("example_a1");
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->needs_transformations);
  Program p = MustParse(entry->source);
  const int symbols = p.symbols().size();
  AnalysisOptions options;
  options.apply_transformations = true;
  TerminationReport first = MustAnalyze(p, entry->query.c_str(), options);
  TerminationReport second = MustAnalyze(p, entry->query.c_str(), options);
  EXPECT_TRUE(first.proved) << first.ToString();
  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(p.symbols().size(), symbols);
}

TEST(AnalyzerTest, DeclaredModesNeedDirectives) {
  Program p = MustParse("p(a).");
  EXPECT_FALSE(EntryQueries(gen::ManifestEntry(), p).ok());
}

bool HasNoteContaining(const std::vector<std::string>& notes,
                       const char* needle) {
  for (const std::string& note : notes) {
    if (note.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(AnalyzerDegradation, TinyWorkBudgetProducesValidPartialReport) {
  // A genuinely exhausted budget (not a failpoint): Analyze must still
  // return a well-formed report where every starved SCC is RESOURCE_LIMIT
  // with a spend snapshot, never an error Status.
  Program p = MustParse(R"(
    rev([], []).
    rev([X|Xs], Ys) :- rev(Xs, Zs), append(Zs, [X], Ys).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  AnalysisOptions options;
  options.run_inference = false;
  options.limits.work_budget = 1;
  TerminationAnalyzer analyzer(options);
  Result<TerminationReport> r = analyzer.Analyze(p, "rev(b,f)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->proved);
  EXPECT_TRUE(r->resource_limited);
  EXPECT_FALSE(r->first_resource_trip.empty());
  int limited = 0;
  for (const SccReport& scc : r->sccs) {
    if (scc.status != SccStatus::kResourceLimit) continue;
    ++limited;
    EXPECT_TRUE(HasNoteContaining(scc.notes, "task spend:"))
        << r->ToString();
  }
  EXPECT_GE(limited, 1);
}

#ifdef TERMILOG_FAILPOINTS_ENABLED

TEST(AnalyzerDegradation, DualBuildTripDegradesOneSccOnly) {
  // rev calls append, and SCCs are analyzed callees first, so the single
  // forced dual.build failure lands on append's SCC. rev's own descent
  // (first argument shrinks) needs nothing from append, so its SCC must
  // still get a real PROVED verdict.
  Program p = MustParse(R"(
    rev([], []).
    rev([X|Xs], Ys) :- rev(Xs, Zs), append(Zs, [X], Ys).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  ScopedFailpoint fp("dual.build", /*max_fails=*/1);
  TerminationReport r = MustAnalyze(p, "rev(b,f)");
  EXPECT_FALSE(r.proved);
  EXPECT_TRUE(r.resource_limited);
  EXPECT_FALSE(r.first_resource_trip.empty());
  int limited = 0;
  int proved = 0;
  for (const SccReport& scc : r.sccs) {
    if (scc.status == SccStatus::kResourceLimit) {
      ++limited;
      EXPECT_TRUE(HasNoteContaining(scc.notes, "task spend:"))
          << r.ToString();
    }
    if (scc.status == SccStatus::kProved) ++proved;
  }
  EXPECT_EQ(limited, 1) << r.ToString();
  EXPECT_EQ(proved, 1) << r.ToString();
}

TEST(AnalyzerDegradation, PivotTripBecomesResourceLimitNotNotProved) {
  // A pivot-limit outcome is "unanswered", not "condition failed": the SCC
  // must be RESOURCE_LIMIT, never a silent NOT_PROVED.
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  AnalysisOptions options;
  options.run_inference = false;
  TerminationAnalyzer analyzer(options);
  ScopedFailpoint fp("lp.pivot");
  Result<TerminationReport> r = analyzer.Analyze(p, "append(b,f,f)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->sccs.size(), 1u);
  EXPECT_EQ(r->sccs[0].status, SccStatus::kResourceLimit) << r->ToString();
  EXPECT_TRUE(r->resource_limited);
}

TEST(AnalyzerDegradation, TransformTripFallsBackToUntransformedProgram) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  AnalysisOptions options;
  options.apply_transformations = true;
  ScopedFailpoint fp("transform.pipeline");
  TerminationReport r = MustAnalyze(p, "append(b,f,f)", options);
  EXPECT_TRUE(r.proved) << r.ToString();
  EXPECT_TRUE(r.resource_limited);
  EXPECT_TRUE(HasNoteContaining(r.notes, "transformations abandoned"))
      << r.ToString();
}

TEST(AnalyzerDegradation, InferenceTripLeavesPredicatesUnconstrained) {
  // A budget trip during constraint inference leaves the predicates out of
  // the ArgSizeDb (the sound top approximation) and warns; append's direct
  // structural descent still proves.
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  ScopedFailpoint fp("inference.sweep");
  TerminationReport r = MustAnalyze(p, "append(b,f,f)");
  EXPECT_TRUE(r.proved) << r.ToString();
  EXPECT_TRUE(r.resource_limited);
  EXPECT_TRUE(HasNoteContaining(r.notes, "inference skipped for SCC"))
      << r.ToString();
}

TEST(AnalyzerDegradation, DeclaredModesIsolateResourceTrips) {
  Program p = MustParse(R"(
    :- mode(append(b, f, f)).
    :- mode(append(f, f, b)).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  ScopedFailpoint fp("analyzer.scc", /*max_fails=*/1);
  std::vector<BatchItemResult> results = RunDeclaredModes(p);
  ASSERT_EQ(results.size(), 2u);
  // The forced trip lands on the first mode's only SCC; the second mode's
  // request is untouched.
  EXPECT_FALSE(results[0].report.proved);
  EXPECT_TRUE(results[0].report.resource_limited);
  EXPECT_TRUE(results[1].report.proved) << results[1].report.ToString();
  EXPECT_FALSE(results[1].report.resource_limited);
}

#endif  // TERMILOG_FAILPOINTS_ENABLED

TEST(AnalyzerTest, SecondArgumentDescent) {
  Program p = MustParse(R"(
    subseq([], []).
    subseq([X|T], [X|S]) :- subseq(T, S).
    subseq(T, [X|S]) :- subseq(T, S).
  )");
  TerminationReport r = MustAnalyze(p, "subseq(f,b)");
  EXPECT_TRUE(r.proved) << r.ToString();
}

}  // namespace
}  // namespace termilog
