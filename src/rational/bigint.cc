#include "rational/bigint.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

namespace {
constexpr uint64_t kBase = uint64_t{1} << 32;

thread_local int64_t g_limb_high_water = 0;
}  // namespace

int64_t BigInt::LimbHighWater() { return g_limb_high_water; }

void BigInt::ResetLimbHighWater() { g_limb_high_water = 0; }

void BigInt::NoteLimbs(size_t limbs) {
  if (static_cast<int64_t>(limbs) > g_limb_high_water) {
    g_limb_high_water = static_cast<int64_t>(limbs);
  }
}

BigInt::BigInt(int64_t value) {
  if (value == 0) return;
  negative_ = value < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(value) + 1
                           : static_cast<uint64_t>(value);
  limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
  if (mag >> 32) limbs_.push_back(static_cast<uint32_t>(mag >> 32));
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  bool negative = false;
  size_t i = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) {
    return Status::InvalidArgument("sign without digits");
  }
  BigInt value;
  const BigInt ten(10);
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      return Status::InvalidArgument(
          StrCat("bad digit '", text[i], "' in integer literal"));
    }
    value = value * ten + BigInt(text[i] - '0');
  }
  if (negative && !value.is_zero()) value.negative_ = true;
  return value;
}

BigInt BigInt::FromInt128(__int128 value) {
  BigInt out;
  if (value == 0) return out;
  out.negative_ = value < 0;
  unsigned __int128 mag = out.negative_
                              ? -static_cast<unsigned __int128>(value)
                              : static_cast<unsigned __int128>(value);
  while (mag != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
  return out;
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMagnitude(const LimbVector& a,
                             const LimbVector& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

LimbVector BigInt::AddMagnitude(const LimbVector& a,
                                           const LimbVector& b) {
  LimbVector out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

LimbVector BigInt::SubMagnitude(const LimbVector& a,
                                           const LimbVector& b) {
  TERMILOG_CHECK(CompareMagnitude(a, b) >= 0);
  LimbVector out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

LimbVector BigInt::MulMagnitude(const LimbVector& a,
                                           const LimbVector& b) {
  if (a.empty() || b.empty()) return {};
  LimbVector out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

void BigInt::AddMagnitudeInPlace(LimbVector* a, const LimbVector& b) {
  // Self-aliasing (&b == a) is safe: each element is read before it is
  // written and resize() is a no-op when the sizes already match.
  size_t n = std::max(a->size(), b.size());
  size_t b_size = b.size();
  a->resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry + (*a)[i];
    if (i < b_size) sum += b[i];
    (*a)[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagnitudeInPlace(LimbVector* a, const LimbVector& b) {
  TERMILOG_CHECK(CompareMagnitude(*a, b) >= 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    int64_t diff = static_cast<int64_t>((*a)[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
}

void BigInt::RSubMagnitudeInPlace(LimbVector* a, const LimbVector& b) {
  TERMILOG_CHECK(CompareMagnitude(b, *a) >= 0);
  size_t a_size = a->size();
  a->resize(b.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    int64_t diff = static_cast<int64_t>(b[i]) - borrow -
                   (i < a_size ? static_cast<int64_t>((*a)[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
}

BigInt& BigInt::AddSignedInPlace(const BigInt& other, bool flip_other_sign) {
  bool other_negative =
      other.limbs_.empty() ? false
                           : (flip_other_sign ? !other.negative_
                                              : other.negative_);
  if (negative_ == other_negative) {
    AddMagnitudeInPlace(&limbs_, other.limbs_);
  } else if (CompareMagnitude(limbs_, other.limbs_) >= 0) {
    SubMagnitudeInPlace(&limbs_, other.limbs_);
  } else {
    RSubMagnitudeInPlace(&limbs_, other.limbs_);
    negative_ = other_negative;
  }
  Trim();
  NoteLimbs(limbs_.size());
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  return AddSignedInPlace(other, /*flip_other_sign=*/false);
}

BigInt& BigInt::operator-=(const BigInt& other) {
  return AddSignedInPlace(other, /*flip_other_sign=*/true);
}

BigInt& BigInt::operator*=(const BigInt& other) {
  // Schoolbook multiplication cannot reuse its input storage, so the
  // product is built out of line and moved in; this still avoids the full
  // temporary BigInt of `*this = *this * other`. Reading other.negative_
  // before the move keeps `x *= x` correct.
  bool product_negative = negative_ != other.negative_;
  limbs_ = MulMagnitude(limbs_, other.limbs_);
  negative_ = !limbs_.empty() && product_negative;
  NoteLimbs(limbs_.size());
  return *this;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  if (negative_ == other.negative_) {
    out.limbs_ = AddMagnitude(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else if (CompareMagnitude(limbs_, other.limbs_) >= 0) {
    out.limbs_ = SubMagnitude(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else {
    out.limbs_ = SubMagnitude(other.limbs_, limbs_);
    out.negative_ = other.negative_;
  }
  out.Trim();
  NoteLimbs(out.limbs_.size());
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt out;
  out.limbs_ = MulMagnitude(limbs_, other.limbs_);
  out.negative_ = !out.limbs_.empty() && (negative_ != other.negative_);
  NoteLimbs(out.limbs_.size());
  return out;
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  TERMILOG_CHECK_MSG(!divisor.is_zero(), "division by zero");
  int mag = CompareMagnitude(dividend.limbs_, divisor.limbs_);
  if (mag < 0) {
    *quotient = BigInt();
    *remainder = dividend;
    return;
  }
  // Single-limb divisor: fast short division.
  if (divisor.limbs_.size() == 1) {
    uint64_t d = divisor.limbs_[0];
    LimbVector q(dividend.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = dividend.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | dividend.limbs_[i];
      q[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    BigInt qq, rr;
    qq.limbs_ = std::move(q);
    qq.Trim();
    rr = BigInt(static_cast<int64_t>(rem));
    qq.negative_ = !qq.is_zero() && (dividend.negative_ != divisor.negative_);
    if (dividend.negative_ && !rr.is_zero()) rr.negative_ = true;
    *quotient = std::move(qq);
    *remainder = std::move(rr);
    return;
  }
  // Multi-limb divisor: binary shift-and-subtract long division on
  // magnitudes. Coefficient bit-lengths in this library stay modest, so the
  // O(bits * limbs) cost is acceptable and the code is simple to audit.
  LimbVector rem;  // running remainder magnitude
  LimbVector quot(dividend.limbs_.size(), 0);
  for (size_t bit_index = dividend.limbs_.size() * 32; bit_index-- > 0;) {
    // rem = rem * 2 + bit
    uint32_t carry =
        (dividend.limbs_[bit_index / 32] >> (bit_index % 32)) & 1u;
    for (size_t i = 0; i < rem.size(); ++i) {
      uint32_t next_carry = rem[i] >> 31;
      rem[i] = (rem[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry) rem.push_back(carry);
    if (CompareMagnitude(rem, divisor.limbs_) >= 0) {
      rem = SubMagnitude(rem, divisor.limbs_);
      quot[bit_index / 32] |= uint32_t{1} << (bit_index % 32);
    }
  }
  BigInt qq, rr;
  qq.limbs_ = std::move(quot);
  qq.Trim();
  rr.limbs_ = std::move(rem);
  rr.Trim();
  qq.negative_ = !qq.is_zero() && (dividend.negative_ != divisor.negative_);
  rr.negative_ = !rr.is_zero() && dividend.negative_;
  *quotient = std::move(qq);
  *remainder = std::move(rr);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  // Fast path: both magnitudes fit in native words.
  if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
    auto magnitude = [](const BigInt& v) -> uint64_t {
      uint64_t mag = v.limbs_.empty() ? 0 : v.limbs_[0];
      if (v.limbs_.size() == 2) mag |= static_cast<uint64_t>(v.limbs_[1]) << 32;
      return mag;
    };
    uint64_t x = magnitude(a), y = magnitude(b);
    while (y != 0) {
      uint64_t r = x % y;
      x = y;
      y = r;
    }
    return FromInt128(static_cast<__int128>(static_cast<unsigned __int128>(x)));
  }
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() < 2) return true;
  if (limbs_.size() > 2) return false;
  uint64_t mag = (static_cast<uint64_t>(limbs_[1]) << 32) | limbs_[0];
  return negative_ ? mag <= (uint64_t{1} << 63)
                   : mag <= (uint64_t{1} << 63) - 1;
}

int64_t BigInt::ToInt64() const {
  TERMILOG_CHECK_MSG(FitsInt64(), "BigInt out of int64_t range");
  uint64_t mag = 0;
  if (!limbs_.empty()) mag = limbs_[0];
  if (limbs_.size() == 2) mag |= static_cast<uint64_t>(limbs_[1]) << 32;
  if (negative_) {
    // |INT64_MIN| == 2^63 passes FitsInt64 but negating it in signed space
    // is signed overflow (UB); return the boundary value explicitly.
    if (mag == (uint64_t{1} << 63)) return INT64_MIN;
    return -static_cast<int64_t>(mag);
  }
  return static_cast<int64_t>(mag);
}

void BigInt::AppendTo(std::string* out) const {
  if (is_zero()) {
    out->push_back('0');
    return;
  }
  // Repeated short division by 1e9 produces 9 decimal digits per step,
  // least significant first.
  LimbVector mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) out->push_back('-');
  out->append(digits.rbegin(), digits.rend());
}

std::string BigInt::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

size_t BigInt::Hash() const {
  size_t h = negative_ ? 0x9e3779b97f4a7c15u : 0;
  // Fast path for the <= 2-limb values that dominate polyhedral workloads:
  // the loop below unrolled by hand, producing bit-identical hashes (the
  // differential fuzz suite asserts this).
  size_t n = limbs_.size();
  if (n <= 2) {
    if (n >= 1) h ^= limbs_[0] + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
    if (n == 2) h ^= limbs_[1] + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
    return h;
  }
  for (uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace termilog
