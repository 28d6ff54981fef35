#include "linalg/constraint.h"

#include <algorithm>
#include <bit>
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

// Simplify's duplicate key: the relation and coefficients of a normalized
// row, whose entries are machine-word integers almost always.
uint64_t RowKeyHash(const Constraint& row) {
  uint64_t h = static_cast<uint64_t>(row.rel) + 0x9e3779b97f4a7c15u;
  for (const Rational& c : row.coeffs) {
    int64_t small = 0;
    uint64_t v = c.GetInt64(&small) ? static_cast<uint64_t>(small) : c.Hash();
    h = (h ^ v) * 0x100000001b3u;
  }
  // Finalizer of MurmurHash3: spreads every input bit into the low bits
  // that index the table.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdu;
  h ^= h >> 33;
  return h;
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

bool ConstraintSystem::Simplify(std::vector<uint64_t>* tags) {
  TERMILOG_DCHECK(tags == nullptr || tags->size() == rows_.size());
  // A false return leaves the rows as they were. A positive scale keeps a
  // constant row's sign, so a violated one is found before normalizing; a
  // kEq clash shows only once rows are normalized, so two or more kEq rows
  // are worth a copy to restore.
  size_t eq_rows = 0;
  for (const Constraint& row : rows_) {
    if (row.IsConstantRow() && !row.ConstantRowHolds()) return false;
    eq_rows += row.rel == Relation::kEq;
  }
  std::vector<Constraint> saved_rows;
  std::vector<uint64_t> saved_tags;
  if (eq_rows > 1) {
    saved_rows = rows_;
    if (tags != nullptr) saved_tags = *tags;
  }
  // Rows are normalized and compacted in place. An open-addressing table
  // over (relation, coefficients) finds each row's first copy among the
  // kept rows: a slot holds a kept index + 1, and 0 marks it free.
  size_t mask = 15;
  while (mask < 2 * rows_.size()) mask = 2 * mask + 1;
  std::vector<uint32_t> slots(mask + 1, 0);
  std::vector<uint64_t> hashes;
  hashes.reserve(rows_.size());
  size_t kept = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    Constraint& row = rows_[i];
    row.Normalize();
    if (row.IsConstantRow()) continue;  // it holds: checked above
    const uint64_t hash = RowKeyHash(row);
    size_t slot = hash & mask;
    for (; slots[slot] != 0; slot = (slot + 1) & mask) {
      const size_t j = slots[slot] - 1;
      if (hashes[j] == hash && rows_[j].rel == row.rel &&
          rows_[j].coeffs == row.coeffs) {
        break;
      }
    }
    if (slots[slot] == 0) {
      slots[slot] = static_cast<uint32_t>(kept + 1);
      hashes.push_back(hash);
      if (kept != i) {
        rows_[kept] = std::move(row);
        if (tags != nullptr) (*tags)[kept] = (*tags)[i];
      }
      ++kept;
      continue;
    }
    const size_t j = slots[slot] - 1;
    Constraint& first = rows_[j];
    if (row.rel == Relation::kEq) {
      if (first.constant == row.constant) continue;  // a duplicate
      rows_ = std::move(saved_rows);  // same coefficients, another constant
      if (tags != nullptr) *tags = std::move(saved_tags);
      return false;
    }
    // Among kGe rows with the same coefficients the smallest constant is
    // the strongest (coeffs.x + constant >= 0) and implies the others.
    const int cmp = row.constant.Compare(first.constant);
    if (cmp < 0) first.constant = std::move(row.constant);
    if (tags != nullptr &&
        (cmp < 0 || (cmp == 0 && std::popcount((*tags)[i]) <
                                     std::popcount((*tags)[j])))) {
      (*tags)[j] = (*tags)[i];
    }
  }
  rows_.resize(kept);
  if (tags != nullptr) tags->resize(kept);
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
