#include "linalg/linear_expr.h"

#include <utility>

#include "util/string_util.h"

namespace termilog {

LinearExpr LinearExpr::Variable(int var) {
  LinearExpr expr;
  expr.SetCoeff(var, Rational(1));
  return expr;
}

Rational LinearExpr::Coeff(int var) const {
  auto it = coeffs_.find(var);
  return it == coeffs_.end() ? Rational() : it->second;
}

void LinearExpr::SetCoeff(int var, Rational value) {
  if (value.is_zero()) {
    coeffs_.erase(var);
  } else {
    coeffs_[var] = std::move(value);
  }
}

void LinearExpr::AddToCoeff(int var, const Rational& delta) {
  SetCoeff(var, Coeff(var) + delta);
}

LinearExpr LinearExpr::operator+(const LinearExpr& other) const {
  LinearExpr out = *this;
  out += other;
  return out;
}

LinearExpr& LinearExpr::operator+=(const LinearExpr& other) {
  constant_ += other.constant_;
  for (const auto& [var, coeff] : other.coeffs_) AddToCoeff(var, coeff);
  return *this;
}

LinearExpr LinearExpr::operator-(const LinearExpr& other) const {
  LinearExpr out = *this;
  out -= other;
  return out;
}

LinearExpr& LinearExpr::operator-=(const LinearExpr& other) {
  constant_ -= other.constant_;
  for (const auto& [var, coeff] : other.coeffs_) AddToCoeff(var, -coeff);
  return *this;
}

LinearExpr LinearExpr::operator*(const Rational& scale) const {
  LinearExpr out;
  if (scale.is_zero()) return out;
  out.constant_ = constant_ * scale;
  for (const auto& [var, coeff] : coeffs_) out.coeffs_[var] = coeff * scale;
  return out;
}

LinearExpr LinearExpr::operator-() const {
  LinearExpr out = *this;
  out.constant_.Negate();
  for (auto& [var, coeff] : out.coeffs_) coeff.Negate();
  return out;
}

LinearExpr LinearExpr::Substitute(int var, const LinearExpr& replacement) const {
  auto it = coeffs_.find(var);
  if (it == coeffs_.end()) return *this;
  Rational coeff = it->second;
  LinearExpr out = *this;
  out.coeffs_.erase(var);
  out += replacement * coeff;
  return out;
}

Rational LinearExpr::Evaluate(const std::vector<Rational>& point) const {
  Rational out = constant_;
  for (const auto& [var, coeff] : coeffs_) {
    if (var >= 0 && static_cast<size_t>(var) < point.size()) {
      out += coeff * point[var];
    }
  }
  return out;
}

int LinearExpr::MaxVar() const {
  return coeffs_.empty() ? -1 : coeffs_.rbegin()->first;
}

void AppendSumTerm(std::string* out, const Rational& coeff, int var,
                   bool first, const std::function<std::string(int)>* namer) {
  const Rational one(1);
  if (first) {
    if (coeff == Rational(-1)) {
      out->push_back('-');
    } else if (coeff != one) {
      StrAppend(out, coeff, '*');
    }
  } else if (coeff.sign() >= 0) {
    *out += " + ";
    if (coeff != one) StrAppend(out, coeff, '*');
  } else {
    *out += " - ";
    Rational mag = coeff.Abs();
    if (mag != one) StrAppend(out, mag, '*');
  }
  if (namer != nullptr) {
    *out += (*namer)(var);
  } else {
    StrAppend(out, 'x', var);
  }
}

void LinearExpr::AppendTo(
    std::string* out, const std::function<std::string(int)>* namer) const {
  bool first = true;
  if (!constant_.is_zero() || coeffs_.empty()) {
    constant_.AppendTo(out);
    first = false;
  }
  for (const auto& [var, coeff] : coeffs_) {
    AppendSumTerm(out, coeff, var, first, namer);
    first = false;
  }
}

std::string LinearExpr::ToString(
    const std::function<std::string(int)>* namer) const {
  std::string out;
  AppendTo(&out, namer);
  return out;
}

}  // namespace termilog
