#include "rational/rational.h"

#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

namespace {

inline bool FitsInt64(__int128 v) { return v >= INT64_MIN && v <= INT64_MAX; }

inline unsigned __int128 UAbs128(__int128 v) {
  return v < 0 ? -static_cast<unsigned __int128>(v)
               : static_cast<unsigned __int128>(v);
}

inline uint64_t Gcd64(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t r = a % b;
    a = b;
    b = r;
  }
  return a;
}

inline unsigned __int128 Gcd128(unsigned __int128 a, unsigned __int128 b) {
  // 128-bit division is a library call (~10x a native divide), so drop to
  // the 64-bit loop as soon as both operands fit a machine word. Euclid
  // shrinks the larger operand below the smaller each step, so at most a
  // couple of wide iterations ever run.
  while (b != 0) {
    if ((a >> 64) == 0 && (b >> 64) == 0) {
      return Gcd64(static_cast<uint64_t>(a), static_cast<uint64_t>(b));
    }
    unsigned __int128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}

}  // namespace

Rational::Rational(BigInt value) { Store(std::move(value), BigInt(1)); }

Rational::Rational(BigInt num, BigInt den) {
  TERMILOG_CHECK_MSG(!den.is_zero(), "rational with zero denominator");
  if (den.is_negative()) {
    num.Negate();
    den.Negate();
  }
  if (num.is_zero()) return;
  BigInt g = BigInt::Gcd(num, den);
  if (!g.is_one()) {
    num = num / g;
    den = den / g;
  }
  Store(std::move(num), std::move(den));
}

Rational::Rational(int64_t num, int64_t den) {
  TERMILOG_CHECK_MSG(den != 0, "rational with zero denominator");
  __int128 n = num, d = den;
  *this = d < 0 ? FromInt128(-n, -d) : FromInt128(n, d);
}

void Rational::Store(BigInt num, BigInt den) {
  if (num.FitsInt64() && den.FitsInt64()) {
    num_ = num.ToInt64();
    den_ = den.ToInt64();
    big_.reset();
    return;
  }
  TERMILOG_DCHECK(den.is_positive() && BigInt::Gcd(num, den).is_one());
  num_ = 0;
  den_ = 1;
  big_ = std::make_unique<Big>(Big{std::move(num), std::move(den)});
}

void Rational::NegateWide() { Store(-num(), den()); }

Result<Rational> Rational::FromString(std::string_view text) {
  text = StripWhitespace(text);
  size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    Result<BigInt> n = BigInt::FromString(text);
    if (!n.ok()) return n.status();
    return Rational(std::move(n).value());
  }
  Result<BigInt> n = BigInt::FromString(text.substr(0, slash));
  if (!n.ok()) return n.status();
  Result<BigInt> d = BigInt::FromString(text.substr(slash + 1));
  if (!d.ok()) return d.status();
  if (d->is_zero()) return Status::InvalidArgument("zero denominator");
  return Rational(std::move(n).value(), std::move(d).value());
}

Rational Rational::FromInt128(__int128 num, __int128 den) {
  Rational out;
  if (num == 0) return out;
  if (den != 1) {
    unsigned __int128 g =
        Gcd128(UAbs128(num), static_cast<unsigned __int128>(den));
    if (g != 1) {
      num /= static_cast<__int128>(g);
      den /= static_cast<__int128>(g);
    }
  }
  if (FitsInt64(num) && FitsInt64(den)) {
    out.num_ = static_cast<int64_t>(num);
    out.den_ = static_cast<int64_t>(den);
  } else {
    out.Store(BigInt::FromInt128(num), BigInt::FromInt128(den));
  }
  return out;
}

// The general case of each binary operation. Two inline operands compute
// exact __int128 cross products (|a|, |b| <= 2^63, so every product and sum
// below fits); a heap operand runs the BigInt formulas, the only arithmetic
// here that notes limbs.
Rational Rational::Add(const Rational& other) const {
  if (!big_ && !other.big_) {
    return FromInt128(
        static_cast<__int128>(num_) * other.den_ +
            static_cast<__int128>(other.num_) * den_,
        static_cast<__int128>(den_) * other.den_);
  }
  return Rational(num() * other.den() + other.num() * den(),
                  den() * other.den());
}

Rational Rational::Sub(const Rational& other) const {
  if (!big_ && !other.big_) {
    return FromInt128(
        static_cast<__int128>(num_) * other.den_ -
            static_cast<__int128>(other.num_) * den_,
        static_cast<__int128>(den_) * other.den_);
  }
  return Rational(num() * other.den() - other.num() * den(),
                  den() * other.den());
}

Rational Rational::Mul(const Rational& other) const {
  if (!big_ && !other.big_) {
    return FromInt128(static_cast<__int128>(num_) * other.num_,
                      static_cast<__int128>(den_) * other.den_);
  }
  return Rational(num() * other.num(), den() * other.den());
}

Rational Rational::operator/(const Rational& other) const {
  TERMILOG_CHECK_MSG(!other.is_zero(), "rational division by zero");
  if (!big_ && !other.big_) {
    __int128 num = static_cast<__int128>(num_) * other.den_;
    __int128 den = static_cast<__int128>(den_) * other.num_;
    return den < 0 ? FromInt128(-num, -den) : FromInt128(num, den);
  }
  return Rational(num() * other.den(), den() * other.num());
}

int Rational::Compare(const Rational& other) const {
  // Sign-only shortcut: denominators are positive, so differing numerator
  // signs settle the comparison without touching any product.
  int sa = sign();
  int sb = other.sign();
  if (sa != sb) return sa < sb ? -1 : 1;
  if (sa == 0) return 0;
  if (!big_ && !other.big_) {
    __int128 lhs = static_cast<__int128>(num_) * other.den_;
    __int128 rhs = static_cast<__int128>(other.num_) * den_;
    return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
  }
  // Cross-multiply; denominators are positive so ordering is preserved.
  return (num() * other.den()).Compare(other.num() * den());
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.Negate();
  return out;
}

Rational Rational::Abs() const { return sign() < 0 ? -*this : *this; }

Rational Rational::Inverse() const {
  TERMILOG_CHECK_MSG(!is_zero(), "inverse of zero");
  if (!big_ && num_ != INT64_MIN) {
    Rational out;
    out.num_ = num_ < 0 ? -den_ : den_;
    out.den_ = num_ < 0 ? -num_ : num_;
    return out;
  }
  return Rational(den(), num());
}

std::string Rational::ToString() const {
  if (is_integer()) return num().ToString();
  return StrCat(num().ToString(), "/", den().ToString());
}

size_t Rational::Hash() const {
  size_t h = num().Hash();
  h ^= den().Hash() + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
  return h;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace termilog
