#ifndef TERMILOG_RATIONAL_RATIONAL_H_
#define TERMILOG_RATIONAL_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "rational/bigint.h"
#include "util/status.h"

namespace termilog {

/// Exact rational number: normalized numerator/denominator pair with
/// denominator > 0 and gcd(|num|, den) == 1. All polyhedral and LP
/// arithmetic in the library is done in this type, so every verdict the
/// analyzer emits is exact.
///
/// A value whose numerator and denominator both fit int64 keeps them
/// inline and is computed on in machine words; any other value holds a
/// heap BigInt pair (docs/arithmetic.md section 2). The form is canonical:
/// every constructor and operation stores a result that fits inline, so
/// the form depends on the value alone, never on how it was built.
class Rational {
 public:
  /// Constructs zero.
  Rational() = default;
  /// Converts from an integer.
  Rational(int64_t value) : num_(value) {}  // NOLINT(runtime/explicit)
  Rational(BigInt value);  // NOLINT(runtime/explicit)
  /// Constructs num/den; checked failure on zero denominator.
  Rational(BigInt num, BigInt den);
  Rational(int64_t num, int64_t den);

  Rational(const Rational& other)
      : num_(other.num_),
        den_(other.den_),
        big_(other.big_ ? std::make_unique<Big>(*other.big_) : nullptr) {}
  Rational& operator=(const Rational& other) {
    num_ = other.num_;
    den_ = other.den_;
    if (!other.big_) {
      big_.reset();
    } else if (this != &other) {
      big_ = std::make_unique<Big>(*other.big_);
    }
    return *this;
  }
  // A moved-from heap value reads as zero (its inline fields are 0/1).
  Rational(Rational&&) noexcept = default;
  Rational& operator=(Rational&&) noexcept = default;

  /// Parses "a", "-a", or "a/b" decimal forms.
  static Result<Rational> FromString(std::string_view text);

  /// The components as BigInts, by value (built on the fly when inline).
  BigInt num() const { return big_ ? big_->num : BigInt(num_); }
  BigInt den() const { return big_ ? big_->den : BigInt(den_); }
  /// True (and *out set) iff the value is an integer that fits int64.
  bool GetInt64(int64_t* out) const {
    if (big_ || den_ != 1) return false;
    *out = num_;
    return true;
  }

  bool is_zero() const { return !big_ && num_ == 0; }
  bool is_integer() const { return big_ ? big_->den.is_one() : den_ == 1; }
  int sign() const {
    return big_ ? big_->num.sign() : (num_ > 0) - (num_ < 0);
  }

  Rational operator-() const;
  /// Flips the sign in place (no-op on zero).
  Rational& Negate() {
    if (!big_ && num_ != INT64_MIN) {
      num_ = -num_;
    } else {
      NegateWide();
    }
    return *this;
  }
  // Two inline integers add, subtract and multiply right here through the
  // overflow builtins; every other pair takes the out-of-line general case.
  Rational operator+(const Rational& other) const {
    int64_t sum = 0;
    if (BothInlineIntegers(other) &&
        !__builtin_add_overflow(num_, other.num_, &sum)) {
      return Rational(sum);
    }
    return Add(other);
  }
  Rational operator-(const Rational& other) const {
    int64_t diff = 0;
    if (BothInlineIntegers(other) &&
        !__builtin_sub_overflow(num_, other.num_, &diff)) {
      return Rational(diff);
    }
    return Sub(other);
  }
  Rational operator*(const Rational& other) const {
    int64_t prod = 0;
    if (BothInlineIntegers(other) &&
        !__builtin_mul_overflow(num_, other.num_, &prod)) {
      return Rational(prod);
    }
    return Mul(other);
  }
  /// Checked failure on division by zero.
  Rational operator/(const Rational& other) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  int Compare(const Rational& other) const;
  /// The canonical form makes two inline values equal iff their fields are.
  bool operator==(const Rational& o) const {
    if (!big_ && !o.big_) return num_ == o.num_ && den_ == o.den_;
    return Compare(o) == 0;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const { return Compare(o) < 0; }
  bool operator<=(const Rational& o) const { return Compare(o) <= 0; }
  bool operator>(const Rational& o) const { return Compare(o) > 0; }
  bool operator>=(const Rational& o) const { return Compare(o) >= 0; }

  Rational Abs() const;
  /// Multiplicative inverse; checked failure on zero.
  Rational Inverse() const;

  /// Appends "a" for an integer, "a/b" otherwise; an inline value is
  /// rendered from its fields, with no temporary BigInt.
  void AppendTo(std::string* out) const;
  /// The AppendTo rendering as a string.
  std::string ToString() const;

  size_t Hash() const;

 private:
  struct Big {
    BigInt num;
    BigInt den;
  };

  bool BothInlineIntegers(const Rational& o) const {
    return !big_ && !o.big_ && den_ == 1 && o.den_ == 1;
  }
  Rational Add(const Rational& other) const;
  Rational Sub(const Rational& other) const;
  Rational Mul(const Rational& other) const;
  /// Builds the value num/den from an exact 128-bit fraction with den > 0,
  /// reducing with a native gcd.
  static Rational FromInt128(__int128 num, __int128 den);
  /// Stores an already-normalized pair in canonical form: inline when both
  /// components fit int64, on the heap otherwise.
  void Store(BigInt num, BigInt den);
  /// Negate() for a heap value or an inline numerator of -2^63.
  void NegateWide();

  // Inline value when big_ is null; a heap value keeps 0/1 here.
  int64_t num_ = 0;
  int64_t den_ = 1;
  std::unique_ptr<Big> big_;
};

std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace termilog

#endif  // TERMILOG_RATIONAL_RATIONAL_H_
