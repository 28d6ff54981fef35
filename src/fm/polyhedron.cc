#include "fm/polyhedron.h"

#include <utility>

#include "lp/simplex.h"
#include "util/check.h"

namespace termilog {

Polyhedron Polyhedron::Empty(int num_vars) {
  Polyhedron out(num_vars);
  out.known_empty_ = true;
  out.empty_cache_ = true;
  return out;
}

Polyhedron Polyhedron::NonNegativeOrthant(int num_vars) {
  Polyhedron out(num_vars);
  for (int i = 0; i < num_vars; ++i) out.system_.AddNonNegativity(i);
  return out;
}

Polyhedron Polyhedron::FromSystem(ConstraintSystem system) {
  Polyhedron out(system.num_vars());
  out.system_ = std::move(system);
  return out;
}

void Polyhedron::AddConstraint(Constraint row) {
  TERMILOG_CHECK(!known_empty_);
  system_.Add(std::move(row));
  empty_cache_.reset();
}

bool Polyhedron::IsEmpty() const {
  if (known_empty_) return true;
  if (!empty_cache_.has_value()) {
    std::vector<bool> all_free(system_.num_vars(), true);
    LpResult lp = SimplexSolver::FindFeasible(system_, all_free);
    empty_cache_ = (lp.status == LpStatus::kInfeasible);
  }
  return *empty_cache_;
}

bool Polyhedron::Entails(const Constraint& row) const {
  if (IsEmpty()) return true;
  std::vector<const Constraint*> rows;
  rows.reserve(system_.size());
  for (const Constraint& r : system_.rows()) rows.push_back(&r);
  // The system has a point, so only a Farkas certificate proves the row.
  auto entailed = [&](const Constraint& ge) {
    return SimplexSolver::Entails(num_vars(), rows, ge) ==
           Entailment::kEntailed;
  };
  Constraint ge = row;
  ge.rel = Relation::kGe;
  if (!entailed(ge)) return false;
  if (row.rel == Relation::kGe) return true;
  // An equality is the two opposite inequalities.
  for (Rational& c : ge.coeffs) c.Negate();
  ge.constant.Negate();
  return entailed(ge);
}

bool Polyhedron::Contains(const Polyhedron& other) const {
  if (other.IsEmpty()) return true;
  if (IsEmpty()) return false;
  for (const Constraint& row : system_.rows()) {
    if (!other.Entails(row)) return false;
  }
  return true;
}

bool Polyhedron::Equals(const Polyhedron& other) const {
  return Contains(other) && other.Contains(*this);
}

bool Polyhedron::Contains(const std::vector<Rational>& point) const {
  if (IsEmpty()) return false;
  return system_.SatisfiedBy(point);
}

Result<Polyhedron> Polyhedron::Project(const std::vector<int>& keep,
                                       const FmOptions& options) const {
  if (IsEmpty()) return Polyhedron::Empty(static_cast<int>(keep.size()));
  Result<ConstraintSystem> projected =
      FourierMotzkin::Project(system_, keep, options);
  if (!projected.ok()) return projected.status();
  return Polyhedron::FromSystem(std::move(projected).value());
}

Result<Polyhedron> Polyhedron::ConvexHull(const Polyhedron& p,
                                          const Polyhedron& q,
                                          const FmOptions& options) {
  TERMILOG_CHECK(p.num_vars() == q.num_vars());
  const int n = p.num_vars();
  if (p.IsEmpty()) return q;
  if (q.IsEmpty()) return p;
  // Lifted encoding over [x (n) | y (n) | lambda (1)] where y plays the
  // role of lambda * x_p and (x - y) of (1 - lambda) * x_q:
  //   row of P:  coeffs.y       + constant*lambda           REL 0
  //   row of Q:  coeffs.(x - y) + constant*(1 - lambda)     REL 0
  //   0 <= lambda <= 1
  // FM-eliminating y and lambda yields cl(conv(P union Q)).
  const int total = 2 * n + 1;
  const int lambda = 2 * n;
  ConstraintSystem lifted(total);
  for (const Constraint& row : p.constraints().rows()) {
    Constraint out;
    out.rel = row.rel;
    out.coeffs.resize(total);
    for (int i = 0; i < n; ++i) out.coeffs[n + i] = row.coeffs[i];
    out.coeffs[lambda] = row.constant;
    out.constant = Rational(0);
    lifted.Add(std::move(out));
  }
  for (const Constraint& row : q.constraints().rows()) {
    Constraint out;
    out.rel = row.rel;
    out.coeffs.resize(total);
    for (int i = 0; i < n; ++i) {
      out.coeffs[i] = row.coeffs[i];
      out.coeffs[n + i] = -row.coeffs[i];
    }
    out.coeffs[lambda] = -row.constant;
    out.constant = row.constant;
    lifted.Add(std::move(out));
  }
  {
    Constraint lo;
    lo.rel = Relation::kGe;
    lo.coeffs.resize(total);
    lo.coeffs[lambda] = Rational(1);
    lifted.Add(std::move(lo));
    Constraint hi;
    hi.rel = Relation::kGe;
    hi.coeffs.resize(total);
    hi.coeffs[lambda] = Rational(-1);
    hi.constant = Rational(1);
    lifted.Add(std::move(hi));
  }
  std::vector<int> keep(n);
  for (int i = 0; i < n; ++i) keep[i] = i;
  Result<ConstraintSystem> projected =
      FourierMotzkin::Project(lifted, keep, options);
  if (!projected.ok()) return projected.status();
  Polyhedron hull = Polyhedron::FromSystem(std::move(projected).value());
  hull.Minimize();
  return hull;
}

Polyhedron Polyhedron::Widen(const Polyhedron& newer) const {
  TERMILOG_CHECK(num_vars() == newer.num_vars());
  if (IsEmpty()) return newer;
  if (newer.IsEmpty()) return *this;
  Polyhedron out(num_vars());
  for (const Constraint& row : system_.rows()) {
    if (newer.Entails(row)) {
      out.system_.Add(row);
      continue;
    }
    // An equality row is two inequalities; one direction may survive even
    // when the other drifts (e.g. a1 = 2 + a2 relaxing to a1 >= 2 + a2
    // across the e/t/n grammar fixpoint). Keep the stable half.
    if (row.rel == Relation::kEq) {
      Constraint forward = row;
      forward.rel = Relation::kGe;
      if (newer.Entails(forward)) {
        out.system_.Add(forward);
      } else {
        Constraint backward = forward.Scaled(Rational(1));
        for (Rational& c : backward.coeffs) c = -c;
        backward.constant = -backward.constant;
        if (newer.Entails(backward)) out.system_.Add(backward);
      }
    }
  }
  // H79-style second clause, restricted to equalities: keep equality rows
  // of the new value that the old value already satisfied. Without this
  // the first clause can discard an invariant equality the moment its
  // syntactic form shifts (e.g. x0 = x1 drifting to x0 = x1 + x2 as the
  // append/split fixpoint unfolds). Equalities are safe for convergence:
  // the affine hull of an increasing chain only grows, so the set of
  // persistent equalities stabilizes.
  for (const Constraint& row : newer.system_.rows()) {
    if (row.rel == Relation::kEq && Entails(row)) out.system_.Add(row);
  }
  out.system_.Simplify();
  return out;
}

ConstraintSystem Polyhedron::Instantiate(const std::vector<LinearExpr>& images,
                                         int target_num_vars) const {
  TERMILOG_CHECK_MSG(!IsEmpty(), "instantiating the empty polyhedron");
  TERMILOG_CHECK(static_cast<int>(images.size()) == num_vars());
  ConstraintSystem out(target_num_vars);
  for (const Constraint& row : system_.rows()) {
    LinearExpr expr(row.constant);
    for (int i = 0; i < num_vars(); ++i) {
      if (!row.coeffs[i].is_zero()) expr += images[i] * row.coeffs[i];
    }
    out.AddExpr(expr, row.rel);
  }
  return out;
}

void Polyhedron::Minimize() {
  if (known_empty_) return;
  if (!system_.Simplify()) {
    known_empty_ = true;
    empty_cache_ = true;
    system_ = ConstraintSystem(system_.num_vars());
    return;
  }
  FourierMotzkin::LpPruneRedundant(&system_);
}

std::string Polyhedron::ToString(
    const std::function<std::string(int)>* namer) const {
  if (IsEmpty()) return "false\n";
  if (system_.rows().empty()) return "true\n";
  return system_.ToString(namer);
}

}  // namespace termilog
