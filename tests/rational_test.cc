#include "rational/rational.h"

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace termilog {
namespace {

TEST(RationalTest, NormalizationReducesAndFixesSign) {
  Rational r(6, 8);
  EXPECT_EQ(r.num(), BigInt(3));
  EXPECT_EQ(r.den(), BigInt(4));
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), BigInt(-1));
  EXPECT_EQ(neg.den(), BigInt(2));
  Rational zero(0, -7);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.den(), BigInt(1));
}

TEST(RationalTest, Arithmetic) {
  Rational half(1, 2), third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(RationalTest, ComparisonCrossMultiplies) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(5).ToString(), "5");
  EXPECT_EQ(Rational(-5).ToString(), "-5");
  EXPECT_EQ(Rational(1, 2).ToString(), "1/2");
  EXPECT_EQ(Rational(-1, 2).ToString(), "-1/2");
  EXPECT_EQ(Rational().ToString(), "0");
}

TEST(RationalTest, FromString) {
  EXPECT_EQ(Rational::FromString("3/4").value(), Rational(3, 4));
  EXPECT_EQ(Rational::FromString("-3/4").value(), Rational(-3, 4));
  EXPECT_EQ(Rational::FromString("17").value(), Rational(17));
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("a/b").ok());
}

TEST(RationalTest, InverseAndAbs) {
  EXPECT_EQ(Rational(-2, 3).Inverse(), Rational(-3, 2));
  EXPECT_EQ(Rational(-2, 3).Abs(), Rational(2, 3));
  EXPECT_EQ(Rational(5).Inverse(), Rational(1, 5));
}

TEST(RationalTest, IsInteger) {
  EXPECT_TRUE(Rational(4, 2).is_integer());
  EXPECT_FALSE(Rational(1, 2).is_integer());
  EXPECT_TRUE(Rational().is_integer());
}

TEST(RationalTest, FieldAxiomsRandom) {
  unsigned seed = 7;
  auto next = [&seed]() {
    seed = seed * 1103515245 + 12345;
    int64_t num = static_cast<int64_t>(seed % 41) - 20;
    seed = seed * 1103515245 + 12345;
    int64_t den = 1 + static_cast<int64_t>(seed % 19);
    return Rational(num, den);
  };
  for (int i = 0; i < 200; ++i) {
    Rational a = next(), b = next(), c = next();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(), a);
    EXPECT_EQ(a * Rational(1), a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.Inverse(), Rational(1));
    }
  }
}

TEST(RationalTest, NoPrecisionLossOnLongChains) {
  // 1/3 summed 3000 times is exactly 1000.
  Rational sum;
  for (int i = 0; i < 3000; ++i) sum += Rational(1, 3);
  EXPECT_EQ(sum, Rational(1000));
}

TEST(RationalTest, NegateInPlace) {
  Rational r(3, 7);
  EXPECT_EQ(r.Negate(), Rational(-3, 7));
  EXPECT_EQ(r.Negate(), Rational(3, 7));
  Rational zero;
  zero.Negate();
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero, Rational());
}

// Reference implementations over plain BigInt cross-multiplication: the
// machine-word path must agree with these on every input, in particular
// around the int64 boundary where values move between the inline and the
// heap form.
Rational RefAdd(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.den() + b.num() * a.den(), a.den() * b.den());
}
Rational RefSub(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.den() - b.num() * a.den(), a.den() * b.den());
}
Rational RefMul(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.num(), a.den() * b.den());
}
Rational RefDiv(const Rational& a, const Rational& b) {
  return Rational(a.num() * b.den(), a.den() * b.num());
}
int RefCompare(const Rational& a, const Rational& b) {
  return (a.num() * b.den()).Compare(b.num() * a.den());
}

// Rational::Hash in either form: the BigInt hashes of the normalized
// components, combined. Hashes feed cache keys, so the form must not move
// them.
size_t RefHash(const BigInt& num, const BigInt& den) {
  size_t h = num.Hash();
  h ^= den.Hash() + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
  return h;
}

void CheckWellFormed(const Rational& r) {
  ASSERT_TRUE(r.den().is_positive());
  EXPECT_TRUE(BigInt::Gcd(r.num(), r.den()).is_one() || r.is_zero());
  if (r.is_zero()) {
    EXPECT_TRUE(r.den().is_one());
  }
}

TEST(RationalTest, FastPathMatchesSlowPathAtInt64Boundary) {
  // Numerators straddling ±2^63 and ±2^31; denominators straddling the
  // same bands. Pairs where every component fits int64 take the __int128
  // fast path, the rest the BigInt slow path — results must be identical.
  std::vector<BigInt> nums;
  for (const char* s :
       {"0", "1", "-1", "3", "2147483647", "2147483648", "-2147483648",
        "-2147483649", "9223372036854775806", "9223372036854775807",
        "9223372036854775808", "9223372036854775809",
        "-9223372036854775807", "-9223372036854775808",
        "-9223372036854775809"}) {
    nums.push_back(BigInt::FromString(s).value());
  }
  std::vector<BigInt> dens;
  for (const char* s : {"1", "2", "3", "2147483647", "4294967295",
                        "9223372036854775807", "9223372036854775808"}) {
    dens.push_back(BigInt::FromString(s).value());
  }
  std::vector<Rational> values;
  for (const BigInt& n : nums) {
    for (const BigInt& d : dens) {
      values.emplace_back(n, d);
    }
  }
  // Quadratic over the full set is too slow; stride through pairs.
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i % 7; j < values.size(); j += 7) {
      const Rational& a = values[i];
      const Rational& b = values[j];
      Rational sum = a + b;
      ASSERT_EQ(sum, RefAdd(a, b)) << a << " + " << b;
      CheckWellFormed(sum);
      Rational diff = a - b;
      ASSERT_EQ(diff, RefSub(a, b)) << a << " - " << b;
      CheckWellFormed(diff);
      Rational prod = a * b;
      ASSERT_EQ(prod, RefMul(a, b)) << a << " * " << b;
      CheckWellFormed(prod);
      ASSERT_EQ(a.Compare(b), RefCompare(a, b)) << a << " <=> " << b;
      if (!b.is_zero()) {
        Rational quot = a / b;
        ASSERT_EQ(quot, RefDiv(a, b)) << a << " / " << b;
        CheckWellFormed(quot);
      }
      // Equal values must hash equally regardless of which path built them.
      EXPECT_EQ(sum.Hash(), RefAdd(a, b).Hash());
    }
  }
}

static_assert(sizeof(Rational) <= 24, "Rational must stay three words");
static_assert(std::is_nothrow_move_constructible_v<Rational> &&
                  std::is_nothrow_move_assignable_v<Rational>,
              "vector<Rational> reallocation must move, not copy");

BigInt Big(const char* decimal) { return BigInt::FromString(decimal).value(); }

// Checks `r` against its exact value num/den (decimal strings) and against
// `ref`, the same value from the BigInt reference: value, rendering, hash
// and order, plus whether it reads back as an int64 integer (which only an
// inline integer does).
void ExpectExact(const Rational& r, const char* num, const char* den,
                 const Rational& ref, bool int64_integer) {
  BigInt n = Big(num), d = Big(den);
  EXPECT_EQ(r.num(), n);
  EXPECT_EQ(r.den(), d);
  EXPECT_EQ(r, ref);
  EXPECT_EQ(r.Compare(ref), 0);
  EXPECT_EQ(r.ToString(),
            d.is_one() ? n.ToString() : n.ToString() + "/" + d.ToString());
  EXPECT_EQ(r.Hash(), RefHash(n, d));
  EXPECT_EQ(r.Hash(), ref.Hash());
  for (int64_t probe : {INT64_MIN, int64_t{-1}, int64_t{0}, INT64_MAX}) {
    EXPECT_EQ(r.Compare(Rational(probe)), RefCompare(r, Rational(probe)))
        << r << " <=> " << probe;
  }
  EXPECT_EQ(r.is_zero(), n.is_zero());
  EXPECT_EQ(r.sign(), n.sign());
  EXPECT_EQ(r.is_integer(), d.is_one());
  int64_t value = 0;
  EXPECT_EQ(r.GetInt64(&value), int64_integer) << r;
  if (int64_integer) {
    EXPECT_EQ(BigInt(value), n);
  }
  CheckWellFormed(r);
}

TEST(RationalTest, ResultsOutsideInt64SpillToTheHeap) {
  const Rational max(INT64_MAX), min(INT64_MIN), one(1), two(2);
  ExpectExact(max + one, "9223372036854775808", "1", RefAdd(max, one),
              false);
  ExpectExact(max * two, "18446744073709551614", "1", RefMul(max, two),
              false);
  ExpectExact(min - one, "-9223372036854775809", "1", RefSub(min, one),
              false);
  // -2^63 fits int64 but 2^63 does not: every sign flip of it spills.
  Rational negated = min;
  negated.Negate();
  ExpectExact(negated, "9223372036854775808", "1", RefSub(Rational(), min),
              false);
  ExpectExact(-min, "9223372036854775808", "1", RefSub(Rational(), min),
              false);
  ExpectExact(min.Abs(), "9223372036854775808", "1", RefSub(Rational(), min),
              false);
  ExpectExact(min.Inverse(), "-1", "9223372036854775808",
              RefDiv(one, min), false);
  // 1/3 over 2^63 - 1: the reduced denominator 3 * (2^63 - 1) is too wide.
  Rational third(1, 3);
  ExpectExact(third / max, "1", "27670116110564327421", RefDiv(third, max),
              false);
}

TEST(RationalTest, ResultsInsideInt64ComeBackInline) {
  const Rational max(INT64_MAX), one(1);
  Rational wide = max + one;  // 2^63, heap
  ExpectExact(wide - wide, "0", "1", RefSub(wide, wide), true);
  ExpectExact(wide * Rational(1, 2), "4611686018427387904", "1",
              RefMul(wide, Rational(1, 2)), true);
  Rational wider = wide + Rational(5);
  ExpectExact(wider - wide, "5", "1", RefSub(wider, wide), true);
  // A heap value negated to -2^63 is inline again.
  Rational back = wide;
  back.Negate();
  ExpectExact(back, "-9223372036854775808", "1", RefSub(Rational(), wide),
              true);
  ExpectExact(Rational(Big("-9223372036854775808"), Big("1")),
              "-9223372036854775808", "1", Rational(INT64_MIN), true);
  // The heap form's inverse can fit: 1/2^63 -> 2^63 stays wide, but
  // -1/2^63 -> -2^63 is inline.
  Rational tiny = Rational(-1) / wide;
  ExpectExact(tiny.Inverse(), "-9223372036854775808", "1",
              RefDiv(one, tiny), true);
}

TEST(RationalTest, HeapValueCopiesMovesAndSelfAssigns) {
  const Rational wide = Rational(INT64_MAX) + Rational(1);
  const char* kWide = "9223372036854775808";
  Rational copy(wide);
  ExpectExact(copy, kWide, "1", wide, false);
  Rational assigned(7);
  assigned = wide;
  ExpectExact(assigned, kWide, "1", wide, false);
  Rational& alias = assigned;
  assigned = alias;
  ExpectExact(assigned, kWide, "1", wide, false);
  Rational moved(std::move(copy));
  ExpectExact(moved, kWide, "1", wide, false);
  Rational move_assigned(3, 4);
  move_assigned = std::move(moved);
  ExpectExact(move_assigned, kWide, "1", wide, false);
  Rational& self = move_assigned;
  move_assigned = std::move(self);
  ExpectExact(move_assigned, kWide, "1", wide, false);
  // Assigning an inline value over a heap one releases the heap pair.
  assigned = Rational(5);
  ExpectExact(assigned, "5", "1", Rational(5), true);
  std::vector<Rational> grown;
  for (int i = 0; i < 33; ++i) grown.push_back(wide + Rational(i));
  for (int i = 0; i < 33; ++i) {
    EXPECT_EQ(grown[i] - wide, Rational(i));
  }
}

TEST(RationalTest, LimbAccountingMatchesBigIntPath) {
  // Only BigInt arithmetic notes limbs: two inline operands compute in
  // machine words and leave the high-water mark alone, while a heap
  // operand runs the BigInt formulas (2^120 is four 32-bit limbs).
  const Rational p40(int64_t{1} << 40);
  BigInt::ResetLimbHighWater();
  Rational p80 = p40 * p40;
  EXPECT_EQ(BigInt::LimbHighWater(), 0);
  BigInt::ResetLimbHighWater();
  Rational p120 = p80 * p40;
  EXPECT_EQ(BigInt::LimbHighWater(), 4);
  EXPECT_EQ(p120.num(), Big("1329227995784915872903807060280344576"));
}

}  // namespace
}  // namespace termilog
