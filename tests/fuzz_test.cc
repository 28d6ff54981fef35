// Robustness sweeps: malformed and randomized inputs must produce error
// Statuses (or clean verdicts), never crashes or checked-invariant
// failures. Deterministic seeds keep failures reproducible.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "interp/sld.h"
#include "program/parser.h"
#include "rational/rational.h"

namespace termilog {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % (hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// --- Differential fuzz: Rational machine-word path vs BigInt heap path ---
//
// Every Rational operation has two implementations: the machine-word path
// (taken when both operands are inline, i.e. all four components fit
// int64) and the BigInt path of heap values. The fuzzer drives random
// values concentrated in the bands around ±2^63 and ±2^31 where the forms
// hand over, and checks each operation against a reference computed with
// plain BigInt cross-multiplication (which never enters the machine-word
// path).

Rational FuzzRefAdd(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.den() + b.num() * a.den(), a.den() * b.den());
}
Rational FuzzRefMul(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.num(), a.den() * b.den());
}

class RationalDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RationalDifferentialFuzz, FastPathAgreesWithBigIntReference) {
  class Rng {
   public:
    explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
    uint64_t Next() {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      return state_;
    }

   private:
    uint64_t state_;
  };
  Rng rng(GetParam() + 3100);
  auto boundary_value = [&rng]() {
    // A base magnitude at one of the interesting scales, jittered by a few
    // units so values land on both sides of each boundary.
    static const uint64_t kBands[] = {0,
                                      3,
                                      uint64_t{1} << 31,
                                      uint64_t{1} << 32,
                                      uint64_t{1} << 62,
                                      uint64_t{1} << 63,
                                      (uint64_t{1} << 63) + (uint64_t{1} << 10)};
    uint64_t mag = kBands[rng.Next() % 7] + rng.Next() % 5;
    BigInt value =
        BigInt(static_cast<int64_t>(mag >> 1)) + BigInt(static_cast<int64_t>(mag >> 1)) +
        BigInt(static_cast<int64_t>(mag & 1));
    if (rng.Next() % 2) value.Negate();
    return value;
  };
  auto boundary_rational = [&]() {
    BigInt num = boundary_value();
    BigInt den = boundary_value();
    if (den.is_zero()) den = BigInt(1);
    return Rational(std::move(num), std::move(den));
  };
  for (int round = 0; round < 60; ++round) {
    Rational a = boundary_rational();
    Rational b = boundary_rational();
    // Addition / multiplication against the reference.
    Rational sum = a + b;
    ASSERT_EQ(sum, FuzzRefAdd(a, b)) << a << " + " << b;
    Rational prod = a * b;
    ASSERT_EQ(prod, FuzzRefMul(a, b)) << a << " * " << b;
    // Subtraction and division via algebraic identities (they share the
    // fast-path plumbing but exercise the sign handling differently).
    ASSERT_EQ(a - b, FuzzRefAdd(a, -b)) << a << " - " << b;
    if (!b.is_zero()) {
      Rational quot = a / b;
      ASSERT_EQ(quot * b, a) << a << " / " << b;
    }
    // Compare must match the sign of the BigInt cross-product difference.
    int cmp = a.Compare(b);
    ASSERT_EQ(cmp, (a.num() * b.den() - b.num() * a.den()).sign())
        << a << " <=> " << b;
    // Normalization invariants hold on every result.
    for (const Rational* r : {&sum, &prod}) {
      ASSERT_TRUE(r->den().is_positive());
      ASSERT_TRUE(r->is_zero() || BigInt::Gcd(r->num(), r->den()).is_one());
    }
    // Hash is path-independent: equal values hash equally.
    ASSERT_EQ(sum.Hash(), FuzzRefAdd(a, b).Hash());

    // Multiply-then-divide chain near ±2^62: the products cross the int64
    // boundary onto the heap, and dividing the factors back out must
    // return the exact start value in its inline form.
    int64_t start = (int64_t{1} << 62) + static_cast<int64_t>(rng.Next() % 4096);
    if (rng.Next() % 2) start = -start;
    Rational x(start);
    std::vector<Rational> factors;
    for (int step = 0; step < 3; ++step) {
      Rational f(static_cast<int64_t>(2 + rng.Next() % 7),
                 static_cast<int64_t>(1 + rng.Next() % 3));
      if (rng.Next() % 2) f.Negate();
      Rational up = x * f;
      ASSERT_EQ(up, FuzzRefMul(x, f)) << x << " * " << f;
      ASSERT_EQ(up.Hash(), FuzzRefMul(x, f).Hash());
      x = std::move(up);
      factors.push_back(std::move(f));
    }
    while (!factors.empty()) {
      Rational down = x / factors.back();
      ASSERT_EQ(FuzzRefMul(down, factors.back()), x)
          << x << " / " << factors.back();
      x = std::move(down);
      factors.pop_back();
    }
    int64_t back = 0;
    ASSERT_TRUE(x.GetInt64(&back)) << x;
    ASSERT_EQ(back, start);
    ASSERT_EQ(x.Hash(), Rational(BigInt(start)).Hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalDifferentialFuzz,
                         ::testing::Range(1, 13));

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, TokenSoupNeverCrashes) {
  Rng rng(GetParam());
  static const char* kTokens[] = {
      "p",  "q(",  ")",   "[",  "]",  ",",  "|",  ".",  ":-", "X",
      "Y",  "_",   "42",  "'a'", "=",  "=<", "\\+", "f(", "(",  " ",
      "%c\n", "/*", "*/", "foo", "Bar"};
  for (int round = 0; round < 50; ++round) {
    std::string soup;
    int len = static_cast<int>(rng.Range(1, 30));
    for (int i = 0; i < len; ++i) {
      soup += kTokens[rng.Range(0, 24)];
    }
    // Must return, with either a program or an error status.
    Result<Program> result = ParseProgram(soup);
    if (result.ok()) {
      // Whatever parsed must round-trip through the printer.
      std::string printed = result->ToString();
      EXPECT_LE(printed.size(), soup.size() * 20 + 64);
    }
  }
}

TEST_P(ParserFuzz, ValidProgramsRoundTrip) {
  // Generate structurally valid random programs and reparse their
  // pretty-printed form.
  Rng rng(GetParam() + 500);
  std::string source;
  int num_rules = static_cast<int>(rng.Range(1, 6));
  for (int r = 0; r < num_rules; ++r) {
    std::string head = "p" + std::to_string(rng.Range(0, 2));
    source += head + "(";
    int arity = 2;
    for (int a = 0; a < arity; ++a) {
      if (a) source += ",";
      switch (rng.Range(0, 3)) {
        case 0: source += "X"; break;
        case 1: source += "[X|Xs]"; break;
        case 2: source += "f(Y)"; break;
        default: source += "c"; break;
      }
    }
    source += ")";
    if (rng.Range(0, 1)) {
      source += " :- p" + std::to_string(rng.Range(0, 2)) + "(X, Xs)";
    }
    source += ".\n";
  }
  Result<Program> first = ParseProgram(source);
  ASSERT_TRUE(first.ok()) << source;
  Result<Program> second = ParseProgram(first->ToString());
  ASSERT_TRUE(second.ok()) << first->ToString();
  EXPECT_EQ(first->rules().size(), second->rules().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 16));

class AnalyzerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzerFuzz, RandomListProgramsAnalyzeCleanly) {
  // Random recursive list-walking programs: the analyzer must return a
  // report (never crash), and whenever it proves, the interpreter must
  // agree on a concrete query.
  Rng rng(GetParam() + 900);
  std::string source = "walk([], []).\n";
  // Recursive rule with randomized consumption/production.
  int consume = static_cast<int>(rng.Range(0, 2));   // extra elements eaten
  bool swap = rng.Range(0, 1) == 1;
  std::string lhs = "[X";
  for (int i = 0; i < consume; ++i) lhs += ",Y" + std::to_string(i);
  lhs += "|Xs]";
  source += "walk(" + lhs + ", [X|Zs]) :- walk(" +
            std::string(swap ? "Zs, Xs" : "Xs, Zs") + ").\n";
  // With swap the second argument is free output fed back in: analysis
  // may or may not prove, but must not crash and must not prove a
  // diverging program.
  Result<Program> program = ParseProgram(source);
  ASSERT_TRUE(program.ok()) << source;
  TerminationAnalyzer analyzer;
  Result<TerminationReport> report = analyzer.Analyze(*program, "walk(b,f)");
  ASSERT_TRUE(report.ok()) << source;
  if (report->proved) {
    SldOptions options;
    options.max_depth = 2000;
    Result<SldResult> run =
        RunQuery(*program, "walk([a,b,c,d,e,f], W)", options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->outcome, SldOutcome::kExhausted) << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerFuzz, ::testing::Range(1, 21));

TEST(AnalyzerEdgeCases, EmptyProgramQueryFails) {
  Program empty;
  TerminationAnalyzer analyzer;
  EXPECT_FALSE(analyzer.Analyze(empty, "p(b)").ok());
}

TEST(AnalyzerEdgeCases, FactOnlyPredicateProved) {
  Result<Program> p = ParseProgram("p(a). p(b).");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> r = analyzer.Analyze(*p, "p(b)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved);
}

TEST(AnalyzerEdgeCases, SelfUnifyingHeadHandled) {
  // Repeated variables in heads stress the size-equation builder.
  Result<Program> p =
      ParseProgram("dup([X,X|Xs]) :- dup(Xs). dup([]). dup([X]).");
  TerminationAnalyzer analyzer;
  Result<TerminationReport> r = analyzer.Analyze(*p, "dup(b)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved);
}

TEST(ParserDepthGuard, PathologicalNestingReturnsResourceExhausted) {
  // 3000 levels of f(...) — far beyond the parser's recursion cap. Must
  // come back as a structured error, not a C++ stack overflow.
  std::string source = "p(";
  for (int i = 0; i < 3000; ++i) source += "f(";
  source += "a";
  for (int i = 0; i < 3000; ++i) source += ")";
  source += ").";
  Result<Program> result = ParseProgram(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("depth"), std::string::npos);
}

TEST(ParserDepthGuard, ModerateNestingStillParses) {
  // 300 levels is deep but within the cap.
  std::string source = "p(";
  for (int i = 0; i < 300; ++i) source += "f(";
  source += "a";
  for (int i = 0; i < 300; ++i) source += ")";
  source += ").";
  Result<Program> result = ParseProgram(source);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->rules().size(), 1u);
}

TEST(AnalyzerEdgeCases, DeepTermsInRules) {
  std::string deep = "f(";
  std::string close = ")";
  for (int i = 0; i < 40; ++i) {
    deep += "g(";
    close += ")";
  }
  std::string source = "p(" + deep + "X" + close + ") :- p(X).";
  Result<Program> p = ParseProgram(source);
  ASSERT_TRUE(p.ok());
  TerminationAnalyzer analyzer;
  Result<TerminationReport> r = analyzer.Analyze(*p, "p(b)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proved);  // argument shrinks by 41 every call
}

}  // namespace
}  // namespace termilog
