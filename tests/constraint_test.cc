#include "linalg/constraint.h"

#include <bit>
#include <limits>
#include <map>

#include <gtest/gtest.h>

namespace termilog {
namespace {

Constraint MakeGe(std::vector<int64_t> coeffs, int64_t constant) {
  Constraint row;
  for (int64_t c : coeffs) row.coeffs.emplace_back(c);
  row.constant = Rational(constant);
  row.rel = Relation::kGe;
  return row;
}

Constraint MakeEq(std::vector<int64_t> coeffs, int64_t constant) {
  Constraint row = MakeGe(std::move(coeffs), constant);
  row.rel = Relation::kEq;
  return row;
}

TEST(ConstraintTest, FromExprDense) {
  LinearExpr e = LinearExpr::Variable(1) * Rational(2) - LinearExpr(Rational(3));
  Constraint row = Constraint::FromExpr(e, 3, Relation::kGe);
  EXPECT_EQ(row.num_vars(), 3);
  EXPECT_EQ(row.coeffs[0], Rational(0));
  EXPECT_EQ(row.coeffs[1], Rational(2));
  EXPECT_EQ(row.constant, Rational(-3));
}

TEST(ConstraintTest, SatisfiedBy) {
  Constraint ge = MakeGe({1, -1}, 0);  // x0 - x1 >= 0
  EXPECT_TRUE(ge.SatisfiedBy({Rational(3), Rational(2)}));
  EXPECT_TRUE(ge.SatisfiedBy({Rational(2), Rational(2)}));
  EXPECT_FALSE(ge.SatisfiedBy({Rational(1), Rational(2)}));
  Constraint eq = MakeEq({1, -1}, 0);
  EXPECT_TRUE(eq.SatisfiedBy({Rational(2), Rational(2)}));
  EXPECT_FALSE(eq.SatisfiedBy({Rational(3), Rational(2)}));
}

TEST(ConstraintTest, NormalizeScalesToCopimeIntegers) {
  Constraint row;
  row.coeffs = {Rational(1, 2), Rational(1, 3)};
  row.constant = Rational(5, 6);
  row.rel = Relation::kGe;
  row.Normalize();
  EXPECT_EQ(row.coeffs[0], Rational(3));
  EXPECT_EQ(row.coeffs[1], Rational(2));
  EXPECT_EQ(row.constant, Rational(5));
}

TEST(ConstraintTest, NormalizeEqSignConvention) {
  Constraint row = MakeEq({-2, 4}, -6);
  row.Normalize();
  EXPECT_EQ(row.coeffs[0], Rational(1));
  EXPECT_EQ(row.coeffs[1], Rational(-2));
  EXPECT_EQ(row.constant, Rational(3));
}

TEST(ConstraintTest, NormalizePreservesGeDirection) {
  Constraint row = MakeGe({-2, 2}, 4);  // -2x0 + 2x1 + 4 >= 0
  row.Normalize();
  // Must NOT flip sign: divide by 2 only.
  EXPECT_EQ(row.coeffs[0], Rational(-1));
  EXPECT_EQ(row.coeffs[1], Rational(1));
  EXPECT_EQ(row.constant, Rational(2));
}

TEST(ConstraintSystemTest, SimplifyDropsDuplicatesAndWeakerRows) {
  ConstraintSystem sys(2);
  sys.Add(MakeGe({1, 0}, 0));
  sys.Add(MakeGe({2, 0}, 0));   // same after normalize -> dropped
  sys.Add(MakeGe({1, 0}, 5));   // weaker than constant 0 -> dropped
  sys.Add(MakeGe({0, 1}, -1));
  ASSERT_TRUE(sys.Simplify());
  EXPECT_EQ(sys.size(), 2u);
}

TEST(ConstraintSystemTest, SimplifyKeepsStrongerConstant) {
  ConstraintSystem sys(1);
  sys.Add(MakeGe({1}, 5));
  sys.Add(MakeGe({1}, -3));  // x0 >= 3 is stronger than x0 >= -5
  ASSERT_TRUE(sys.Simplify());
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys.rows()[0].constant, Rational(-3));
}

TEST(ConstraintSystemTest, SimplifyDetectsConstantContradiction) {
  ConstraintSystem sys(1);
  Constraint bad;
  bad.coeffs = {Rational(0)};
  bad.constant = Rational(-1);
  bad.rel = Relation::kGe;  // 0 >= 1, false
  sys.Add(bad);
  EXPECT_FALSE(sys.Simplify());
}

TEST(ConstraintSystemTest, SimplifyDetectsEqContradiction) {
  ConstraintSystem sys(1);
  sys.Add(MakeEq({1}, 0));
  sys.Add(MakeEq({1}, 5));  // x0 = 0 and x0 = -5
  EXPECT_FALSE(sys.Simplify());
}

// ConstraintSystem::Simplify as it was written with two ordered maps keyed
// on coefficient vectors, plus the tag rule of a merged kGe row: the tag of
// the copy whose constant survives, on equal constants the one with fewer
// bits. Leaves `rows` and `tags` alone when it returns false.
bool ReferenceSimplify(std::vector<Constraint>* rows,
                       std::vector<uint64_t>* tags) {
  std::vector<Constraint> kept;
  std::vector<uint64_t> kept_tags;
  std::map<std::vector<Rational>, size_t> ge_best;
  std::map<std::vector<Rational>, size_t> eq_present;
  for (size_t i = 0; i < rows->size(); ++i) {
    Constraint row = (*rows)[i];
    const uint64_t tag = (*tags)[i];
    row.Normalize();
    if (row.IsConstantRow()) {
      if (!row.ConstantRowHolds()) return false;
      continue;
    }
    if (row.rel == Relation::kEq) {
      auto [it, inserted] = eq_present.try_emplace(row.coeffs, kept.size());
      if (!inserted) {
        if (kept[it->second].constant != row.constant) return false;
        continue;
      }
      kept.push_back(std::move(row));
      kept_tags.push_back(tag);
      continue;
    }
    auto it = ge_best.find(row.coeffs);
    if (it != ge_best.end()) {
      const size_t j = it->second;
      if (row.constant < kept[j].constant) {
        kept[j].constant = row.constant;
        kept_tags[j] = tag;
      } else if (row.constant == kept[j].constant &&
                 std::popcount(tag) < std::popcount(kept_tags[j])) {
        kept_tags[j] = tag;
      }
      continue;
    }
    ge_best.emplace(row.coeffs, kept.size());
    kept.push_back(std::move(row));
    kept_tags.push_back(tag);
  }
  *rows = std::move(kept);
  *tags = std::move(kept_tags);
  return true;
}

TEST(ConstraintTest, SimplifyMatchesOrderedMapReference) {
  // Random systems built to hit every rule: duplicates, positive and (for
  // kEq rows) negative scalings, weaker and stronger kGe copies, kEq pairs
  // that clash, held and violated constant rows, and tags of every weight.
  uint64_t state = 2463534242u;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto range = [&next](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
  };
  int failures = 0, merges = 0;
  for (int round = 0; round < 3000; ++round) {
    const int num_vars = static_cast<int>(range(1, 4));
    const int num_rows = static_cast<int>(range(0, 60));
    ConstraintSystem sys(num_vars);
    std::vector<uint64_t> tags;
    for (int r = 0; r < num_rows; ++r) {
      const int64_t kind = range(0, 39);
      Constraint row;
      if (kind < 16 && r > 0) {  // a scaled copy of an earlier row
        row = sys.rows()[range(0, r - 1)];
        Rational scale(range(1, 3), range(1, 2));
        if (row.rel == Relation::kEq && range(0, 1) == 1) scale.Negate();
        row = row.Scaled(scale);
        if (kind < 6) row.constant += Rational(range(-1, 1));
      } else if (kind == 16) {  // a constant row, held or violated
        row = MakeGe(std::vector<int64_t>(num_vars, 0), range(-1, 1));
        if (range(0, 3) == 0) row.rel = Relation::kEq;
      } else {
        std::vector<int64_t> coeffs;
        for (int v = 0; v < num_vars; ++v) coeffs.push_back(range(-2, 2));
        row = MakeGe(coeffs, range(-3, 3));
        if (range(0, 4) == 0) row.rel = Relation::kEq;
      }
      sys.Add(std::move(row));
      // Tags of 0 to about 20 bits, often equal in weight.
      tags.push_back(next() & next() & next() & (range(0, 1) ? ~0ull : 0xffull));
    }
    std::vector<Constraint> expected_rows = sys.rows();
    std::vector<uint64_t> expected_tags = tags;
    const bool expected = ReferenceSimplify(&expected_rows, &expected_tags);
    ConstraintSystem untagged = sys;
    const std::vector<Constraint> input_rows = sys.rows();
    const std::vector<uint64_t> input_tags = tags;
    const std::string label = "round " + std::to_string(round) + "\n" +
                              sys.ToString();
    ASSERT_EQ(sys.Simplify(&tags), expected) << label;
    ASSERT_EQ(untagged.Simplify(), expected) << label;
    if (!expected) {
      ++failures;
      // A false return leaves rows and tags as they were.
      EXPECT_TRUE(sys.rows() == input_rows) << label;
      EXPECT_EQ(tags, input_tags) << label;
      EXPECT_TRUE(untagged.rows() == input_rows) << label;
      continue;
    }
    merges += static_cast<int>(input_rows.size() - expected_rows.size());
    EXPECT_TRUE(sys.rows() == expected_rows) << label;
    EXPECT_EQ(tags, expected_tags) << label;
    EXPECT_TRUE(untagged.rows() == expected_rows) << label;
  }
  // Both outcomes were exercised, many times.
  EXPECT_GT(failures, 100);
  EXPECT_GT(merges, 10000);
}

TEST(ConstraintSystemTest, ResizePadsRows) {
  ConstraintSystem sys(1);
  sys.Add(MakeGe({1}, 0));
  sys.Resize(3);
  EXPECT_EQ(sys.num_vars(), 3);
  EXPECT_EQ(sys.rows()[0].coeffs.size(), 3u);
  EXPECT_EQ(sys.rows()[0].coeffs[2], Rational(0));
}

TEST(NormalizeRowGcdTest, IntegerRowsReduceToCoprime) {
  std::vector<Rational> coeffs = {Rational(6), Rational(-9), Rational(0)};
  Rational constant(12);
  NormalizeRowGcd(&coeffs, &constant);
  EXPECT_EQ(coeffs[0], Rational(2));
  EXPECT_EQ(coeffs[1], Rational(-3));
  EXPECT_EQ(coeffs[2], Rational(0));
  EXPECT_EQ(constant, Rational(4));
}

TEST(NormalizeRowGcdTest, CoprimeRowIsUntouched) {
  // The steady state: already-coprime machine-word integers. The fast path
  // must recognize this and leave the row bit-for-bit alone.
  std::vector<Rational> coeffs = {Rational(3), Rational(-5)};
  Rational constant(7);
  NormalizeRowGcd(&coeffs, &constant);
  EXPECT_EQ(coeffs[0], Rational(3));
  EXPECT_EQ(coeffs[1], Rational(-5));
  EXPECT_EQ(constant, Rational(7));
}

TEST(NormalizeRowGcdTest, FractionalRowClearsDenominators) {
  std::vector<Rational> coeffs = {Rational(1, 6), Rational(-1, 4)};
  Rational constant(5, 3);
  NormalizeRowGcd(&coeffs, &constant);
  // lcm of denominators is 12; scaled row (2, -3, 20) is already coprime.
  EXPECT_EQ(coeffs[0], Rational(2));
  EXPECT_EQ(coeffs[1], Rational(-3));
  EXPECT_EQ(constant, Rational(20));
}

TEST(NormalizeRowGcdTest, WideIntegersTakeSlowPath) {
  // Coefficients beyond int64: the fast path bails and the BigInt slow
  // path must still find the common factor.
  BigInt big = BigInt::FromString("36893488147419103232").value();  // 2^65
  std::vector<Rational> coeffs = {Rational(big, BigInt(1)),
                                  Rational(big * BigInt(3), BigInt(1))};
  Rational constant(Rational(big * BigInt(5), BigInt(1)));
  NormalizeRowGcd(&coeffs, &constant);
  EXPECT_EQ(coeffs[0], Rational(1));
  EXPECT_EQ(coeffs[1], Rational(3));
  EXPECT_EQ(constant, Rational(5));
}

TEST(NormalizeRowGcdTest, Int64MinCoefficientHandled) {
  // |INT64_MIN| = 2^63 doesn't fit int64, so the fast path's gcd could
  // exceed INT64_MAX; the implementation must fall back rather than
  // overflow. gcd(2^63, 2^62) = 2^62.
  std::vector<Rational> coeffs = {
      Rational(std::numeric_limits<int64_t>::min()),
      Rational(int64_t{1} << 62)};
  Rational constant(0);
  NormalizeRowGcd(&coeffs, &constant);
  EXPECT_EQ(coeffs[0], Rational(-2));
  EXPECT_EQ(coeffs[1], Rational(1));
  EXPECT_EQ(constant, Rational(0));
  // Both entries INT64_MIN: gcd is 2^63 itself.
  std::vector<Rational> pair = {
      Rational(std::numeric_limits<int64_t>::min()),
      Rational(std::numeric_limits<int64_t>::min())};
  Rational zero(0);
  NormalizeRowGcd(&pair, &zero);
  EXPECT_EQ(pair[0], Rational(-1));
  EXPECT_EQ(pair[1], Rational(-1));
}

TEST(NormalizeRowGcdTest, ZeroRowAndEmptyRowAreNoOps) {
  std::vector<Rational> coeffs = {Rational(0), Rational(0)};
  Rational constant(0);
  NormalizeRowGcd(&coeffs, &constant);
  EXPECT_EQ(coeffs[0], Rational(0));
  EXPECT_EQ(constant, Rational(0));
  std::vector<Rational> empty;
  Rational lone(4);
  NormalizeRowGcd(&empty, &lone);
  EXPECT_EQ(lone, Rational(1));  // constant-only row still reduces
}

TEST(ConstraintTest, NormalizeAppliesEqSignConvention) {
  // For kEq rows the first nonzero coefficient is made positive.
  Constraint eq = MakeEq({-4, 6}, -2);
  eq.Normalize();
  EXPECT_EQ(eq.coeffs[0], Rational(2));
  EXPECT_EQ(eq.coeffs[1], Rational(-3));
  EXPECT_EQ(eq.constant, Rational(1));
  // Ge rows must NOT be flipped (that would change their meaning).
  Constraint ge = MakeGe({-4, 6}, -2);
  ge.Normalize();
  EXPECT_EQ(ge.coeffs[0], Rational(-2));
  EXPECT_EQ(ge.coeffs[1], Rational(3));
  EXPECT_EQ(ge.constant, Rational(-1));
}

TEST(ConstraintSystemTest, ToStringRendersRelations) {
  ConstraintSystem sys(2);
  sys.Add(MakeGe({1, -1}, 2));
  sys.Add(MakeEq({0, 1}, 0));
  std::string text = sys.ToString();
  EXPECT_NE(text.find(">= 0"), std::string::npos);
  EXPECT_NE(text.find("= 0"), std::string::npos);
}

}  // namespace
}  // namespace termilog
