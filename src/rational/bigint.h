#ifndef TERMILOG_RATIONAL_BIGINT_H_
#define TERMILOG_RATIONAL_BIGINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/status.h"

namespace termilog {

/// Small-buffer vector of 32-bit limbs. Polyhedral computations churn
/// through enormous numbers of small integers; values up to 128 bits live
/// inline with no heap traffic, larger magnitudes spill to the heap.
class LimbVector {
 public:
  static constexpr size_t kInline = 4;

  LimbVector() = default;
  LimbVector(size_t count, uint32_t value) { resize(count, value); }
  LimbVector(const LimbVector& other) { CopyFrom(other); }
  LimbVector& operator=(const LimbVector& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  LimbVector(LimbVector&& other) noexcept { MoveFrom(std::move(other)); }
  LimbVector& operator=(LimbVector&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  ~LimbVector() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  uint32_t operator[](size_t i) const {
    TERMILOG_DCHECK(i < size_);
    return data()[i];
  }
  uint32_t& operator[](size_t i) {
    TERMILOG_DCHECK(i < size_);
    return data()[i];
  }
  uint32_t back() const {
    TERMILOG_DCHECK(size_ > 0);
    return data()[size_ - 1];
  }

  void push_back(uint32_t value) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    data()[size_++] = value;
  }
  void pop_back() {
    TERMILOG_DCHECK(size_ > 0);
    --size_;
  }
  void clear() { size_ = 0; }

  void resize(size_t count, uint32_t value = 0) {
    if (count > capacity_) Grow(count);
    for (size_t i = size_; i < count; ++i) data()[i] = value;
    size_ = count;
  }
  void reserve(size_t count) {
    if (count > capacity_) Grow(count);
  }

  const uint32_t* data() const { return heap_ ? heap_ : inline_; }
  uint32_t* data() { return heap_ ? heap_ : inline_; }
  const uint32_t* begin() const { return data(); }
  const uint32_t* end() const { return data() + size_; }

 private:
  void Grow(size_t min_capacity) {
    size_t capacity = capacity_;
    while (capacity < min_capacity) capacity *= 2;
    uint32_t* storage = new uint32_t[capacity];
    std::memcpy(storage, data(), size_ * sizeof(uint32_t));
    Release();
    heap_ = storage;
    capacity_ = capacity;
  }
  void CopyFrom(const LimbVector& other) {
    size_ = other.size_;
    if (size_ <= kInline) {
      heap_ = nullptr;
      capacity_ = kInline;
      std::memcpy(inline_, other.data(), size_ * sizeof(uint32_t));
    } else {
      capacity_ = other.size_;
      heap_ = new uint32_t[capacity_];
      std::memcpy(heap_, other.heap_, size_ * sizeof(uint32_t));
    }
  }
  void MoveFrom(LimbVector&& other) {
    size_ = other.size_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.size_ = 0;
      other.capacity_ = kInline;
    } else {
      heap_ = nullptr;
      capacity_ = kInline;
      std::memcpy(inline_, other.inline_, size_ * sizeof(uint32_t));
      other.size_ = 0;
    }
  }
  void Release() {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInline;
  }

  uint32_t inline_[kInline];
  uint32_t* heap_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = kInline;
};

/// Arbitrary-precision signed integer, sign-and-magnitude over 32-bit limbs
/// (little-endian). Fourier-Motzkin elimination and exact simplex multiply
/// coefficients pairwise, so fixed-width integers overflow on realistic
/// inputs; every numeric path in the library goes through this type.
///
/// Invariants: magnitude has no trailing zero limbs; zero is represented as
/// an empty magnitude with negative_ == false.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;
  /// Converts from a machine integer.
  BigInt(int64_t value);  // NOLINT(runtime/explicit): numeric literal ergonomics

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(BigInt&&) = default;

  /// Parses an optionally signed decimal string.
  static Result<BigInt> FromString(std::string_view text);

  /// Converts from a 128-bit integer (used by Rational's fast path).
  static BigInt FromInt128(__int128 value);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_positive() const { return !negative_ && !limbs_.empty(); }
  /// True iff the value is exactly 1 (cheaper than Compare(BigInt(1))).
  bool is_one() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Returns -1, 0, or +1.
  int sign() const { return is_zero() ? 0 : (negative_ ? -1 : 1); }

  /// Three-way compare; negative / zero / positive like strcmp.
  int Compare(const BigInt& other) const;

  BigInt operator-() const;
  /// Flips the sign in place (no-op on zero); the allocation-free form of
  /// unary negation for expression temporaries.
  BigInt& Negate() {
    if (!limbs_.empty()) negative_ = !negative_;
    return *this;
  }
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C semantics: quotient rounds toward zero).
  /// Checked failure on division by zero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C semantics).
  BigInt operator%(const BigInt& other) const;

  /// In-place compound ops: accumulate directly into this value's limb
  /// storage (no temporary BigInt, no allocation while the result fits the
  /// current capacity). Self-aliasing (`x += x`, `x *= x`) is supported.
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  BigInt Abs() const;

  /// Greatest common divisor of the magnitudes; Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Quotient and remainder in one division (truncated semantics).
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  /// True if the value fits in int64_t.
  bool FitsInt64() const;
  /// Converts to int64_t; checked failure if out of range.
  int64_t ToInt64() const;

  /// Appends the decimal rendering, with a leading '-' when negative.
  void AppendTo(std::string* out) const;
  /// The AppendTo rendering as a string.
  std::string ToString() const;

  /// Hash suitable for unordered containers.
  size_t Hash() const;

  /// Thread-local high-water mark: the largest limb count of any arithmetic
  /// result produced since the last reset. The ResourceGovernor samples
  /// this as a memory-growth proxy — FM and simplex blow up through
  /// coefficient magnitude long before they exhaust row budgets.
  static int64_t LimbHighWater();
  static void ResetLimbHighWater();

 private:
  static void NoteLimbs(size_t limbs);

  static int CompareMagnitude(const LimbVector& a,
                              const LimbVector& b);
  static LimbVector AddMagnitude(const LimbVector& a,
                                            const LimbVector& b);
  // Requires |a| >= |b|.
  static LimbVector SubMagnitude(const LimbVector& a,
                                            const LimbVector& b);
  static LimbVector MulMagnitude(const LimbVector& a,
                                            const LimbVector& b);
  // In-place magnitude ops reusing a's (small-buffer) storage.
  // a += b; safe when &b == a.
  static void AddMagnitudeInPlace(LimbVector* a, const LimbVector& b);
  // a -= b; requires |a| >= |b| (checked); safe when &b == a.
  static void SubMagnitudeInPlace(LimbVector* a, const LimbVector& b);
  // a = b - a; requires |b| >= |a| (checked).
  static void RSubMagnitudeInPlace(LimbVector* a, const LimbVector& b);
  // Shared body of operator+= / operator-=: adds other with its sign
  // optionally flipped.
  BigInt& AddSignedInPlace(const BigInt& other, bool flip_other_sign);
  void Trim();

  bool negative_ = false;
  LimbVector limbs_;
};

}  // namespace termilog

#endif  // TERMILOG_RATIONAL_BIGINT_H_
