#include "linalg/constraint.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

namespace {

uint64_t Gcd64(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t r = a % b;
    a = b;
    b = r;
  }
  return a;
}

// Magnitude of an int64 in unsigned space (INT64_MIN-safe).
uint64_t Mag64(int64_t v) {
  return v < 0 ? 0u - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
}

// Machine-word path of NormalizeRowGcd: succeeds when every entry is an
// integer fitting int64, the common steady state once a row has been
// normalized before. Returns false when the row needs the BigInt path.
bool TrySmallRowGcd(std::vector<Rational>* coeffs, Rational* constant) {
  uint64_t g = 0;
  auto scan = [&g](const Rational& v) {
    int64_t n = 0;
    if (!v.GetInt64(&n)) return false;
    g = Gcd64(g, Mag64(n));
    return true;
  };
  for (const Rational& c : *coeffs) {
    if (!scan(c)) return false;
  }
  if (!scan(*constant)) return false;
  // g == 0: all-zero row. g == 1: already coprime integers. Either way the
  // row is normalized and no arithmetic runs at all.
  if (g <= 1) return true;
  if (g > static_cast<uint64_t>(INT64_MAX)) return false;  // |entry| == 2^63
  int64_t divisor = static_cast<int64_t>(g);
  auto divide = [divisor](Rational* v) {
    int64_t n = 0;
    v->GetInt64(&n);
    *v = Rational(n / divisor);
  };
  for (Rational& c : *coeffs) divide(&c);
  divide(constant);
  return true;
}

}  // namespace

void NormalizeRowGcd(std::vector<Rational>* coeffs, Rational* constant) {
  if (TrySmallRowGcd(coeffs, constant)) return;
  // Scale by the lcm of denominators, then divide by the gcd of numerators.
  BigInt denom_lcm(1);
  for (const Rational& c : *coeffs) {
    if (!c.is_zero()) {
      BigInt g = BigInt::Gcd(denom_lcm, c.den());
      denom_lcm = denom_lcm / g * c.den();
    }
  }
  if (!constant->is_zero()) {
    BigInt g = BigInt::Gcd(denom_lcm, constant->den());
    denom_lcm = denom_lcm / g * constant->den();
  }
  BigInt num_gcd(0);
  auto accumulate = [&num_gcd, &denom_lcm](const Rational& c) {
    if (c.is_zero()) return;
    BigInt scaled = c.num() * (denom_lcm / c.den());
    num_gcd = BigInt::Gcd(num_gcd, scaled);
  };
  for (const Rational& c : *coeffs) accumulate(c);
  accumulate(*constant);
  if (num_gcd.is_zero()) {
    // All-zero row apart from possibly constant==0; nothing to scale.
    return;
  }
  Rational scale{denom_lcm, num_gcd};
  for (Rational& c : *coeffs) c *= scale;
  *constant *= scale;
}

Constraint Constraint::FromExpr(const LinearExpr& expr, int num_vars,
                                Relation rel) {
  TERMILOG_CHECK_MSG(expr.MaxVar() < num_vars,
                     "expression variable out of system range");
  Constraint row;
  row.coeffs.assign(num_vars, Rational());
  for (const auto& [var, coeff] : expr.coeffs()) {
    TERMILOG_CHECK(var >= 0);
    row.coeffs[var] = coeff;
  }
  row.constant = expr.constant();
  row.rel = rel;
  return row;
}

bool Constraint::IsConstantRow() const {
  for (const Rational& c : coeffs) {
    if (!c.is_zero()) return false;
  }
  return true;
}

bool Constraint::ConstantRowHolds() const {
  return rel == Relation::kEq ? constant.is_zero() : constant.sign() >= 0;
}

Rational Constraint::Evaluate(const std::vector<Rational>& point) const {
  Rational out = constant;
  size_t n = std::min(point.size(), coeffs.size());
  for (size_t i = 0; i < n; ++i) {
    if (!coeffs[i].is_zero()) out += coeffs[i] * point[i];
  }
  return out;
}

bool Constraint::SatisfiedBy(const std::vector<Rational>& point) const {
  Rational value = Evaluate(point);
  return rel == Relation::kEq ? value.is_zero() : value.sign() >= 0;
}

void Constraint::Normalize() {
  NormalizeRowGcd(&coeffs, &constant);
  if (rel != Relation::kEq) return;
  // Sign convention for equalities: first nonzero coefficient positive (or
  // a nonnegative constant on constant-only rows) so syntactic duplicates
  // collide in Simplify's dedup maps. Negation is an in-place sign flip, so
  // the convention costs no arithmetic.
  bool flip = false;
  bool saw_coeff = false;
  for (const Rational& c : coeffs) {
    if (!c.is_zero()) {
      saw_coeff = true;
      flip = c.sign() < 0;
      break;
    }
  }
  if (!saw_coeff) flip = constant.sign() < 0;
  if (flip) {
    for (Rational& c : coeffs) c.Negate();
    constant.Negate();
  }
}

Constraint Constraint::Scaled(const Rational& scale) const {
  if (rel == Relation::kGe) {
    TERMILOG_CHECK_MSG(scale.sign() > 0, "kGe row scaled by non-positive");
  } else {
    TERMILOG_CHECK_MSG(!scale.is_zero(), "kEq row scaled by zero");
  }
  Constraint out = *this;
  for (Rational& c : out.coeffs) c *= scale;
  out.constant *= scale;
  return out;
}

bool Constraint::operator==(const Constraint& other) const {
  return rel == other.rel && constant == other.constant &&
         coeffs == other.coeffs;
}

bool Constraint::operator<(const Constraint& other) const {
  if (rel != other.rel) return rel < other.rel;
  if (coeffs.size() != other.coeffs.size()) {
    return coeffs.size() < other.coeffs.size();
  }
  for (size_t i = 0; i < coeffs.size(); ++i) {
    int cmp = coeffs[i].Compare(other.coeffs[i]);
    if (cmp != 0) return cmp < 0;
  }
  return constant < other.constant;
}

std::string Constraint::ToString(
    const std::function<std::string(int)>* namer) const {
  LinearExpr expr(constant);
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (!coeffs[i].is_zero()) expr.SetCoeff(static_cast<int>(i), coeffs[i]);
  }
  return StrCat(expr.ToString(namer), rel == Relation::kEq ? " = 0" : " >= 0");
}

void ConstraintSystem::Add(Constraint row) {
  TERMILOG_CHECK_MSG(row.num_vars() == num_vars_,
                     "constraint width mismatch");
  rows_.push_back(std::move(row));
}

void ConstraintSystem::AddExpr(const LinearExpr& expr, Relation rel) {
  Add(Constraint::FromExpr(expr, num_vars_, rel));
}

void ConstraintSystem::AddNonNegativity(int var) {
  TERMILOG_CHECK(var >= 0 && var < num_vars_);
  Constraint row;
  row.coeffs.assign(num_vars_, Rational());
  row.coeffs[var] = Rational(1);
  row.rel = Relation::kGe;
  rows_.push_back(std::move(row));
}

void ConstraintSystem::Append(const ConstraintSystem& other) {
  TERMILOG_CHECK(other.num_vars_ == num_vars_);
  for (const Constraint& row : other.rows_) rows_.push_back(row);
}

bool ConstraintSystem::Simplify() {
  std::vector<Constraint> kept;
  // Map from coefficient vector to (best kGe constant, has kEq) for
  // dominance pruning: among kGe rows with identical coefficients only the
  // one with the smallest constant matters (it implies the others).
  std::map<std::vector<Rational>, size_t> ge_best;      // index into kept
  std::map<std::vector<Rational>, size_t> eq_present;   // index into kept
  for (Constraint row : rows_) {
    row.Normalize();
    if (row.IsConstantRow()) {
      if (!row.ConstantRowHolds()) return false;
      continue;
    }
    if (row.rel == Relation::kEq) {
      auto [it, inserted] = eq_present.try_emplace(row.coeffs, kept.size());
      if (!inserted) {
        // Same coefficients: either duplicate or contradictory constants.
        if (kept[it->second].constant != row.constant) return false;
        continue;
      }
      kept.push_back(std::move(row));
      continue;
    }
    auto it = ge_best.find(row.coeffs);
    if (it != ge_best.end()) {
      // Keep the stronger (larger constant means weaker since
      // coeffs.x + constant >= 0 -> smaller constant is stronger).
      if (row.constant < kept[it->second].constant) {
        kept[it->second].constant = row.constant;
      }
      continue;
    }
    ge_best.emplace(row.coeffs, kept.size());
    kept.push_back(std::move(row));
  }
  rows_ = std::move(kept);
  return true;
}

bool ConstraintSystem::SatisfiedBy(const std::vector<Rational>& point) const {
  for (const Constraint& row : rows_) {
    if (!row.SatisfiedBy(point)) return false;
  }
  return true;
}

void ConstraintSystem::Resize(int new_num_vars) {
  TERMILOG_CHECK(new_num_vars >= num_vars_);
  for (Constraint& row : rows_) {
    row.coeffs.resize(new_num_vars, Rational());
  }
  num_vars_ = new_num_vars;
}

std::string ConstraintSystem::ToString(
    const std::function<std::string(int)>* namer) const {
  std::string out;
  for (const Constraint& row : rows_) {
    out += row.ToString(namer);
    out += "\n";
  }
  return out;
}

}  // namespace termilog
