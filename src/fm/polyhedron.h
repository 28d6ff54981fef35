#ifndef TERMILOG_FM_POLYHEDRON_H_
#define TERMILOG_FM_POLYHEDRON_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fm/fourier_motzkin.h"
#include "linalg/constraint.h"
#include "linalg/linear_expr.h"
#include "util/status.h"

namespace termilog {

/// Closed convex polyhedron in constraint representation. This is the
/// abstract domain of the [VG90] inter-argument constraint inference the
/// paper imports in Section 3: one polyhedron per predicate describes the
/// feasible argument-size vectors of its derivable facts.
///
/// Variables are unrestricted by default; nonnegativity (argument sizes are
/// sizes) is added explicitly by NonNegativeOrthant or AddConstraint.
/// The empty polyhedron is a distinguished value (the inference lattice
/// bottom), not merely a contradictory system.
class Polyhedron {
 public:
  /// Constructs the universe over `num_vars` variables.
  explicit Polyhedron(int num_vars) : system_(num_vars) {}

  static Polyhedron Universe(int num_vars) { return Polyhedron(num_vars); }
  static Polyhedron Empty(int num_vars);
  /// { x : x_i >= 0 for all i }.
  static Polyhedron NonNegativeOrthant(int num_vars);
  /// Wraps an explicit system (empty-ness determined lazily by LP).
  static Polyhedron FromSystem(ConstraintSystem system);

  int num_vars() const { return system_.num_vars(); }
  const ConstraintSystem& constraints() const { return system_; }

  /// Adds one row; invalidates cached emptiness.
  void AddConstraint(Constraint row);

  /// True iff no point satisfies the constraints (exact LP; cached). The
  /// results of ConvexHull, Widen and Project are nonempty by construction
  /// when their operands are known to be, and record it, as do copies of
  /// them: asking those needs no LP (docs/arithmetic.md, section 4).
  /// This decides emptiness and writes the mutable cache, so a value other
  /// threads read must be copied first (RuleTransfer and
  /// RuleSystemBuilder::BuildOne ask their copies of callee polyhedra).
  bool IsEmpty() const;

  /// True when this value is the hard bottom (built by Empty(), or by
  /// Minimize() collapsing a syntactic contradiction): emptiness known
  /// without any LP work, and `constraints()` holds no rows. Reading it
  /// decides nothing, so the paths that must render or store a value
  /// exactly as it is read only this marker: the serializers (src/persist/)
  /// and AppendTo, and through AppendTo the canonical cache keys. IsEmpty()
  /// would instead *decide* emptiness, turning a system of rows that is
  /// empty by LP into a rowless bottom.
  bool known_empty() const { return known_empty_; }

  /// True iff every point of the polyhedron satisfies `row`. The empty
  /// polyhedron (cached IsEmpty()) entails everything; otherwise the answer
  /// is SimplexSolver::Entails, once for a kGe row and once per direction
  /// for a kEq row.
  bool Entails(const Constraint& row) const;

  /// True iff `other` is a subset of this polyhedron. Identical values
  /// answer without an LP.
  bool Contains(const Polyhedron& other) const;

  /// True when both are the same value: the same width, the same hard
  /// bottom marker and the same rows in the same order. Such values are the
  /// same set, so this needs no LP; cached emptiness is not compared.
  bool Identical(const Polyhedron& other) const;

  /// Set equality (mutual containment).
  bool Equals(const Polyhedron& other) const;

  /// True when `point` lies in the polyhedron.
  bool Contains(const std::vector<Rational>& point) const;

  /// FM projection onto the listed variables (result width = keep.size()).
  Result<Polyhedron> Project(const std::vector<int>& keep,
                             const FmOptions& options = FmOptions()) const;

  /// Closed convex hull of the union, computed by the lifted-FM encoding
  /// (used as the join of the inference fixpoint).
  static Result<Polyhedron> ConvexHull(const Polyhedron& p,
                                       const Polyhedron& q,
                                       const FmOptions& options = FmOptions());

  /// Standard (Cousot-Halbwachs) widening: keeps the rows of *this that
  /// `newer` still entails. Requires equal dimensions. If either side is
  /// empty, returns `newer` / *this appropriately.
  Polyhedron Widen(const Polyhedron& newer) const;

  /// Instantiates the polyhedron through an affine map: variable i of this
  /// polyhedron is replaced by `images[i]`, a linear expression over a
  /// target space of width `target_num_vars`. Returns the resulting rows
  /// (constraints over the target space). Requires !IsEmpty().
  ConstraintSystem Instantiate(const std::vector<LinearExpr>& images,
                               int target_num_vars) const;

  /// Normalizes rows and removes LP-redundant ones.
  void Minimize();

  /// Appends the value as stored, one line each: "false" for the hard
  /// bottom (known_empty()), "true" for no rows, the rows otherwise. It
  /// decides no emptiness (no LP, no cache write), so a system of rows that
  /// is empty by LP prints its rows; canonical cache keys render callee
  /// polyhedra through this.
  void AppendTo(std::string* out,
                const std::function<std::string(int)>* namer = nullptr) const;

  /// The report rendering: decides emptiness first (IsEmpty(), an LP when
  /// unknown), so every empty value prints "false"; otherwise AppendTo.
  std::string ToString(
      const std::function<std::string(int)>* namer = nullptr) const;

 private:
  /// True once the polyhedron is known to have a point: an LP found one,
  /// or it was built to contain a value that has one.
  bool known_nonempty() const { return empty_cache_ == false; }
  /// Records that the polyhedron has a point; checked failure if it was
  /// found empty.
  void MarkNonEmpty();

  ConstraintSystem system_;
  bool known_empty_ = false;             // hard bottom marker
  mutable std::optional<bool> empty_cache_;
};

}  // namespace termilog

#endif  // TERMILOG_FM_POLYHEDRON_H_
