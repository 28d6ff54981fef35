#ifndef TERMILOG_LINALG_CONSTRAINT_H_
#define TERMILOG_LINALG_CONSTRAINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/linear_expr.h"
#include "rational/rational.h"

namespace termilog {

/// Relation of a constraint row. "<=" inputs are normalized to kGe by
/// negating the row.
enum class Relation {
  kEq,  // coeffs . x + constant == 0
  kGe,  // coeffs . x + constant >= 0
};

/// Scales `coeffs` and `constant` in place by the unique positive rational
/// that makes every entry an integer with overall gcd 1 (no-op on an
/// all-zero row). A positive scale preserves any row relation, so this is
/// shared by Constraint::Normalize and the simplex tableau's row setup; it
/// is the row-GCD normalization contract of docs/arithmetic.md that keeps
/// coefficient magnitudes inside the Rational fast path deep into
/// elimination and pivoting. Rows whose entries are already coprime
/// machine-word integers (the steady state) early-out without any BigInt
/// arithmetic.
void NormalizeRowGcd(std::vector<Rational>* coeffs, Rational* constant);

/// One dense constraint row over variables x_0..x_{n-1}:
///   coeffs . x + constant  REL  0.
/// This matches the paper's "0 = c + C phi" orientation: the constant term
/// sits on the same side as the coefficients.
struct Constraint {
  std::vector<Rational> coeffs;
  Rational constant;
  Relation rel = Relation::kGe;

  Constraint() = default;
  Constraint(std::vector<Rational> c, Rational k, Relation r)
      : coeffs(std::move(c)), constant(std::move(k)), rel(r) {}

  /// Builds a dense row of width `num_vars` from a sparse expression.
  /// Checked failure if the expression mentions variables >= num_vars.
  static Constraint FromExpr(const LinearExpr& expr, int num_vars,
                             Relation rel);

  /// Number of variable slots (not the number of nonzeros).
  int num_vars() const { return static_cast<int>(coeffs.size()); }

  /// True when every coefficient is zero.
  bool IsConstantRow() const;

  /// For a constant row: true iff the row is satisfied (0 REL constant).
  bool ConstantRowHolds() const;

  /// Evaluates coeffs . point + constant.
  Rational Evaluate(const std::vector<Rational>& point) const;

  /// True when `point` satisfies the row.
  bool SatisfiedBy(const std::vector<Rational>& point) const;

  /// Scales to coprime integer coefficients; for kEq rows also makes the
  /// first nonzero coefficient positive so syntactic duplicates collide.
  void Normalize();

  /// Returns the row multiplied by `scale`; requires scale > 0 for kGe rows
  /// (checked).
  Constraint Scaled(const Rational& scale) const;

  /// Total order for dedup containers.
  bool operator==(const Constraint& other) const;
  bool operator<(const Constraint& other) const;

  /// Appends e.g. "3 + x0 - 2*x1 >= 0" straight from the dense row, in
  /// LinearExpr::AppendTo's form (the constant first when it is nonzero or
  /// every coefficient is zero).
  void AppendTo(std::string* out,
                const std::function<std::string(int)>* namer = nullptr) const;
  /// The AppendTo rendering as a string.
  std::string ToString(
      const std::function<std::string(int)>* namer = nullptr) const;
};

/// A conjunction of constraint rows over a fixed-width variable space.
class ConstraintSystem {
 public:
  ConstraintSystem() = default;
  explicit ConstraintSystem(int num_vars) : num_vars_(num_vars) {}

  int num_vars() const { return num_vars_; }
  const std::vector<Constraint>& rows() const { return rows_; }
  std::vector<Constraint>& mutable_rows() { return rows_; }
  bool empty() const { return rows_.empty(); }
  size_t size() const { return rows_.size(); }

  /// Appends a row; checked failure on width mismatch.
  void Add(Constraint row);
  /// Appends expr REL 0 as a dense row.
  void AddExpr(const LinearExpr& expr, Relation rel);
  /// Appends x_var >= 0.
  void AddNonNegativity(int var);
  /// Appends all rows of `other` (same width required).
  void Append(const ConstraintSystem& other);

  /// Normalizes all rows and drops satisfied constant rows and duplicate
  /// kEq rows. Of the kGe rows with the same coefficients it keeps one, in
  /// the first one's place, with the smallest (strongest) constant. kEq and
  /// kGe rows are deduplicated apart: a kGe row stays even when a kEq row
  /// with the same coefficients is present. Returns false, leaving the rows
  /// as they were, if a constant row is violated or two kEq rows with the
  /// same coefficients disagree (system trivially empty).
  ///
  /// `tags`, when given, holds one value per row and moves with its row. A
  /// merged kGe row keeps the tag of the copy whose constant survives, and
  /// on equal constants the tag with fewer set bits (the FM row histories
  /// of docs/arithmetic.md, section 5).
  bool Simplify(std::vector<uint64_t>* tags = nullptr);

  /// True when `point` satisfies every row.
  bool SatisfiedBy(const std::vector<Rational>& point) const;

  /// Widens the variable space to `new_num_vars` (>= current), padding rows
  /// with zero coefficients.
  void Resize(int new_num_vars);

  /// Appends one row per line, each ending in '\n'.
  void AppendTo(std::string* out,
                const std::function<std::string(int)>* namer = nullptr) const;
  /// The AppendTo rendering as a string.
  std::string ToString(
      const std::function<std::string(int)>* namer = nullptr) const;

 private:
  int num_vars_ = 0;
  std::vector<Constraint> rows_;
};

}  // namespace termilog

#endif  // TERMILOG_LINALG_CONSTRAINT_H_
