// Cross-module integration checks: analyzer verdicts vs interpreter
// behaviour, certificate semantics along real derivations, and the
// manual-vs-inferred constraint modes agreeing.

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "corpus/corpus.h"
#include "interp/sld.h"
#include "program/parser.h"
#include "term/size.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

TEST(IntegrationTest, ProvedProgramsExhaustSearchOnLargeInputs) {
  Program p = MustParse(R"(
    qs([], []).
    qs([X|Xs], S) :- part(X, Xs, L, G), qs(L, SL), qs(G, SG),
                     append(SL, [X|SG], S).
    part(P, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- P < X, part(P, Xs, L, G).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(p, "qs(b,f)");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->proved) << report->ToString();
  SldResult r =
      RunQuery(p, "qs([9,3,7,1,8,2,6,4,5,10,0],S)").value();
  EXPECT_EQ(r.outcome, SldOutcome::kExhausted);
  EXPECT_EQ(r.num_solutions, 1u);
  EXPECT_EQ(r.solutions[0]->args()[1]->ToString(p.symbols()),
            "[0,1,2,3,4,5,6,7,8,9,10]");
}

TEST(IntegrationTest, CertificateDecreasesAlongConcreteDerivation) {
  // For append with theta from the certificate, the measured level
  // theta . |bound args| strictly decreases call by call.
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(p, "append(b,f,f)");
  ASSERT_TRUE(report.ok() && report->proved);
  const auto& theta = report->sccs[0].certificate.theta.begin()->second;
  ASSERT_EQ(theta.size(), 1u);
  // Simulate the call chain append([a,b,c],...) -> append([b,c],...) -> ...
  std::vector<int64_t> arg_sizes = {6, 4, 2, 0};
  for (size_t i = 0; i + 1 < arg_sizes.size(); ++i) {
    Rational level_here = theta[0] * Rational(arg_sizes[i]);
    Rational level_next = theta[0] * Rational(arg_sizes[i + 1]);
    EXPECT_GE(level_here - level_next, Rational(1));  // delta_ii = 1
  }
}

TEST(IntegrationTest, ManualAndInferredConstraintsAgreeOnPerm) {
  const char* source = R"(
    perm([], []).
    perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )";
  // Mode 1: automatic inference.
  {
    Program p = MustParse(source);
    TerminationAnalyzer analyzer;
    Result<TerminationReport> r = analyzer.Analyze(p, "perm(b,f)");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->proved);
  }
  // Mode 2: the paper's manual mode with the constraint supplied for both
  // adornment clones.
  {
    Program p = MustParse(source);
    AnalysisOptions options;
    options.run_inference = false;
    options.supplied_constraints = {
        {"append__ffb/3", "a1 + a2 = a3"},
        {"append__bbf/3", "a1 + a2 = a3"},
        {"append/3", "a1 + a2 = a3"}};
    TerminationAnalyzer analyzer(options);
    Result<TerminationReport> r = analyzer.Analyze(p, "perm(b,f)");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->proved) << r->ToString();
  }
}

TEST(IntegrationTest, TransformationsPreserveSolutions) {
  // Example A.1 transformed and raw agree on concrete query answers.
  const char* source = R"(
    p(g(X)) :- e(X).
    p(g(X)) :- q(f(X)).
    q(Y) :- p(Y).
    q(f(Z)) :- p(Z), q(Z).
    e(a). e(f(g(a))).
  )";
  Program raw = MustParse(source);
  AnalysisOptions options;
  options.apply_transformations = true;
  TerminationAnalyzer analyzer(options);
  Result<TerminationReport> report = analyzer.Analyze(raw, "p(b)");
  ASSERT_TRUE(report.ok());
  Program transformed = report->analyzed_program;
  for (const char* query : {"p(g(a))", "p(g(f(g(a))))", "p(g(b))", "p(a)"}) {
    SldOptions sld;
    sld.max_depth = 300;
    Result<SldResult> raw_result = RunQuery(raw, query, sld);
    Result<SldResult> transformed_result = RunQuery(transformed, query, sld);
    ASSERT_TRUE(raw_result.ok() && transformed_result.ok());
    ASSERT_EQ(raw_result->outcome, SldOutcome::kExhausted) << query;
    ASSERT_EQ(transformed_result->outcome, SldOutcome::kExhausted) << query;
    EXPECT_EQ(raw_result->num_solutions > 0,
              transformed_result->num_solutions > 0)
        << query;
  }
}

TEST(IntegrationTest, NotProvedDoesNotMeanNonterminating) {
  // Ackermann terminates on small inputs even though the analyzer cannot
  // prove it (sufficient condition only).
  Program p = MustParse(R"(
    ack(z, N, s(N)).
    ack(s(M), z, R) :- ack(M, s(z), R).
    ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).
  )");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(p, "ack(b,b,f)");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->proved);
  SldResult r = RunQuery(p, "ack(s(s(z)), s(s(z)), R)").value();
  EXPECT_EQ(r.outcome, SldOutcome::kExhausted);
  EXPECT_EQ(r.num_solutions, 1u);
}

TEST(IntegrationTest, NonPositiveCycleProgramsActuallyDiverge) {
  Program p = MustParse("q(X) :- q(f(X)).");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(p, "q(b)");
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->sccs[0].status, SccStatus::kNonPositiveCycle);
  SldOptions sld;
  sld.max_depth = 500;
  SldResult r = RunQuery(p, "q(a)", sld).value();
  EXPECT_NE(r.outcome, SldOutcome::kExhausted);
}

TEST(IntegrationTest, WholeCorpusStyleEndToEnd) {
  // gcd end-to-end: proved, and the interpreter computes gcd(4,6) = 2.
  Program p = MustParse(R"(
    minus(X, z, X).
    minus(s(X), s(Y), Z) :- minus(X, Y, Z).
    leq(z, Y).
    leq(s(X), s(Y)) :- leq(X, Y).
    gcd(X, z, X).
    gcd(z, Y, Y).
    gcd(s(X), s(Y), G) :- leq(X, Y), minus(Y, X, D), gcd(s(X), D, G).
    gcd(s(X), s(Y), G) :- leq(s(Y), X), minus(X, Y, D), gcd(D, s(Y), G).
  )");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(p, "gcd(b,b,f)");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->proved) << report->ToString();
  SldResult r = RunQuery(
      p, "gcd(s(s(s(s(z)))), s(s(s(s(s(s(z)))))), G)").value();
  EXPECT_EQ(r.outcome, SldOutcome::kExhausted);
  ASSERT_GE(r.num_solutions, 1u);
  EXPECT_EQ(r.solutions[0]->args()[2]->ToString(p.symbols()), "s(s(z))");
}

// Runs every corpus entry under `limits` and checks the degradation
// contract: Analyze never errors, every RESOURCE_LIMIT SCC carries a spend
// note, and a resource-limited report names its first trip.
void SweepCorpusUnderBudget(const GovernorLimits& limits,
                            bool expect_a_trip) {
  int resource_limited_entries = 0;
  for (const CorpusEntry& entry : Corpus()) {
    Result<Program> program = ParseProgram(entry.source);
    ASSERT_TRUE(program.ok()) << entry.name;
    AnalysisOptions options;
    options.apply_transformations = entry.needs_transformations;
    options.allow_negative_deltas = entry.needs_negative_deltas;
    options.supplied_constraints = entry.supplied_constraints;
    options.limits = limits;
    TerminationAnalyzer analyzer(options);
    Result<TerminationReport> report =
        analyzer.Analyze(*program, entry.query);
    ASSERT_TRUE(report.ok())
        << entry.name << ": " << report.status().ToString();
    EXPECT_FALSE(report->ToString().empty());
    if (report->resource_limited) {
      ++resource_limited_entries;
      EXPECT_FALSE(report->first_resource_trip.empty()) << entry.name;
    }
    for (const SccReport& scc : report->sccs) {
      if (scc.status != SccStatus::kResourceLimit) continue;
      EXPECT_TRUE(report->resource_limited) << entry.name;
      bool has_spend = false;
      for (const std::string& note : scc.notes) {
        if (note.find("task spend:") != std::string::npos) {
          has_spend = true;
        }
      }
      EXPECT_TRUE(has_spend) << entry.name << "\n" << report->ToString();
    }
    // A budget trip must never flip a verdict to PROVED spuriously: when
    // the ground truth is nontermination, the partial report still must
    // not prove.
    if (!entry.terminating) {
      EXPECT_FALSE(report->proved) << entry.name;
    }
  }
  // A tiny work budget must actually bite somewhere on a 47-program
  // corpus — otherwise this sweep tests nothing. (Wall-clock and limb
  // budgets depend on the machine, so their sweeps only check the
  // contract.)
  if (expect_a_trip) {
    EXPECT_GE(resource_limited_entries, 1);
  }
}

TEST(IntegrationTest, CorpusSweepUnderTinyWorkBudget) {
  GovernorLimits limits;
  limits.work_budget = 200;
  SweepCorpusUnderBudget(limits, /*expect_a_trip=*/true);
}

TEST(IntegrationTest, CorpusSweepUnderMillisecondDeadline) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  SweepCorpusUnderBudget(limits, /*expect_a_trip=*/false);
}

TEST(IntegrationTest, CorpusSweepUnderLimbLimit) {
  GovernorLimits limits;
  limits.bigint_limb_limit = 8;
  SweepCorpusUnderBudget(limits, /*expect_a_trip=*/false);
}

}  // namespace
}  // namespace termilog
