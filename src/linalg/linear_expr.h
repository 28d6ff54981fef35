#ifndef TERMILOG_LINALG_LINEAR_EXPR_H_
#define TERMILOG_LINALG_LINEAR_EXPR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rational/rational.h"

namespace termilog {

/// Sparse linear expression over integer-indexed variables:
///   constant + sum_k coeff(k) * x_k.
/// Used for structural term-size polynomials (Section 2.2 of the paper) and
/// for assembling constraint rows before they are flattened into a dense
/// ConstraintSystem. Zero coefficients are never stored.
class LinearExpr {
 public:
  /// Constructs the zero expression.
  LinearExpr() = default;
  /// Constructs a constant expression.
  explicit LinearExpr(Rational constant) : constant_(std::move(constant)) {}

  /// Returns the expression consisting of the single variable `var`.
  static LinearExpr Variable(int var);

  const Rational& constant() const { return constant_; }
  void set_constant(Rational value) { constant_ = std::move(value); }

  /// Coefficient of `var` (zero if absent).
  Rational Coeff(int var) const;
  /// Sets the coefficient of `var`; erases the entry when zero.
  void SetCoeff(int var, Rational value);
  /// Adds `delta` to the coefficient of `var`.
  void AddToCoeff(int var, const Rational& delta);

  /// Iteration over the non-zero coefficients, ordered by variable index.
  const std::map<int, Rational>& coeffs() const { return coeffs_; }

  bool IsConstant() const { return coeffs_.empty(); }
  bool IsZero() const { return coeffs_.empty() && constant_.is_zero(); }

  LinearExpr operator+(const LinearExpr& other) const;
  LinearExpr operator-(const LinearExpr& other) const;
  LinearExpr operator*(const Rational& scale) const;
  LinearExpr operator-() const;
  LinearExpr& operator+=(const LinearExpr& other);
  LinearExpr& operator-=(const LinearExpr& other);

  bool operator==(const LinearExpr& other) const {
    return constant_ == other.constant_ && coeffs_ == other.coeffs_;
  }

  /// Replaces every occurrence of variable `var` with `replacement`.
  LinearExpr Substitute(int var, const LinearExpr& replacement) const;

  /// Evaluates the expression at the given dense point (missing indices are
  /// treated as zero).
  Rational Evaluate(const std::vector<Rational>& point) const;

  /// Largest variable index used, or -1 for constant expressions.
  int MaxVar() const;

  /// Appends e.g. "3 + x0 + 2*x4", using `namer` for variable names; a
  /// null namer prints "x<k>". The constant comes first when it is nonzero
  /// or no coefficient is, then each term through AppendSumTerm.
  void AppendTo(std::string* out,
                const std::function<std::string(int)>* namer = nullptr) const;
  /// The AppendTo rendering as a string.
  std::string ToString(
      const std::function<std::string(int)>* namer = nullptr) const;

 private:
  Rational constant_;
  std::map<int, Rational> coeffs_;
};

/// Appends the nonzero term `coeff` * x_`var` of a rendered sum: "x", "-x"
/// or "c*x" when it comes first, " + x", " + c*x", " - x" or " - c*x" after
/// an earlier term. `namer` names the variable as in LinearExpr::AppendTo.
/// LinearExpr and Constraint both render their terms through this, so a
/// sum has one printed form whether it is held sparse or dense.
void AppendSumTerm(std::string* out, const Rational& coeff, int var,
                   bool first, const std::function<std::string(int)>* namer);

}  // namespace termilog

#endif  // TERMILOG_LINALG_LINEAR_EXPR_H_
