#include "fm/polyhedron.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "lp/simplex.h"
#include "obs/obs.h"

namespace termilog {
namespace {

Constraint Ge(std::vector<int64_t> coeffs, int64_t constant) {
  Constraint row;
  for (int64_t c : coeffs) row.coeffs.emplace_back(c);
  row.constant = Rational(constant);
  row.rel = Relation::kGe;
  return row;
}

Constraint Eq(std::vector<int64_t> coeffs, int64_t constant) {
  Constraint row = Ge(std::move(coeffs), constant);
  row.rel = Relation::kEq;
  return row;
}

TEST(PolyhedronTest, UniverseAndEmpty) {
  Polyhedron universe = Polyhedron::Universe(2);
  EXPECT_FALSE(universe.IsEmpty());
  Polyhedron empty = Polyhedron::Empty(2);
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_TRUE(universe.Contains(empty));
  EXPECT_FALSE(empty.Contains(universe));
  EXPECT_EQ(empty.ToString(), "false\n");
  EXPECT_EQ(universe.ToString(), "true\n");
}

TEST(PolyhedronTest, ContradictionDetectedLazily) {
  Polyhedron p = Polyhedron::Universe(1);
  p.AddConstraint(Ge({1}, -3));
  p.AddConstraint(Ge({-1}, 2));
  EXPECT_TRUE(p.IsEmpty());
}

TEST(PolyhedronTest, EntailsInequality) {
  Polyhedron p = Polyhedron::NonNegativeOrthant(2);
  p.AddConstraint(Eq({1, -1}, 0));  // x0 = x1
  EXPECT_TRUE(p.Entails(Ge({1, 0}, 0)));         // x0 >= 0
  EXPECT_TRUE(p.Entails(Ge({1, -1}, 0)));        // x0 >= x1
  EXPECT_TRUE(p.Entails(Eq({2, -2}, 0)));        // 2x0 = 2x1
  EXPECT_FALSE(p.Entails(Ge({1, 0}, -1)));       // x0 >= 1
  EXPECT_FALSE(p.Entails(Eq({1, 0}, 0)));        // x0 = 0
}

// Entails as it was decided before the Farkas-dual form: the primal minimum
// of coeffs . x over the system (and, for an equality, the maximum too).
bool ReferenceEntails(const Polyhedron& p, const Constraint& row) {
  if (p.IsEmpty()) return true;
  std::vector<bool> all_free(p.num_vars(), true);
  LpResult lo = SimplexSolver::Minimize(p.constraints(), row.coeffs, all_free);
  if (lo.status == LpStatus::kInfeasible) return true;
  if (lo.status != LpStatus::kOptimal) return false;
  if (row.rel == Relation::kGe) {
    return (lo.objective + row.constant).sign() >= 0;
  }
  if ((lo.objective + row.constant).sign() != 0) return false;
  LpResult hi = SimplexSolver::Maximize(p.constraints(), row.coeffs, all_free);
  if (hi.status != LpStatus::kOptimal) return false;
  return (hi.objective + row.constant).sign() == 0;
}

// Seeded source of the random polyhedra below (empty, bounded and
// unbounded): xorshift rows with small coefficients.
class RandomPolyhedra {
 public:
  explicit RandomPolyhedra(uint64_t seed) : state_(seed) {}

  int64_t Range(int64_t lo, int64_t hi) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return lo + static_cast<int64_t>(state_ % (hi - lo + 1));
  }

  Constraint Row(int n, Relation rel) {
    std::vector<int64_t> coeffs;
    for (int v = 0; v < n; ++v) coeffs.push_back(Range(-2, 2));
    Constraint row = Ge(coeffs, Range(-3, 3));
    row.rel = rel;
    return row;
  }

  // Up to six random rows over `n` variables, in the orthant on even
  // rounds; every fifth round adds the implicit equality x0 = x1.
  Polyhedron Next(int round, int n) {
    Polyhedron p = round % 2 == 0 ? Polyhedron::NonNegativeOrthant(n)
                                  : Polyhedron::Universe(n);
    const int num_rows = static_cast<int>(Range(0, 6));
    for (int r = 0; r < num_rows; ++r) {
      p.AddConstraint(
          Row(n, Range(0, 4) == 0 ? Relation::kEq : Relation::kGe));
    }
    if (round % 5 == 4 && n >= 2) {
      std::vector<int64_t> diff(n, 0);
      diff[0] = 1;
      diff[1] = -1;
      p.AddConstraint(Ge(diff, 0));
      diff[0] = -1;
      diff[1] = 1;
      p.AddConstraint(Ge(diff, 0));
    }
    return p;
  }

 private:
  uint64_t state_;
};

TEST(PolyhedronTest, EntailsMatchesPrimalMinMaxReference) {
  // Random polyhedra against random kGe and kEq targets, plus targets built
  // to be entailed: relaxed nonnegative combinations of two rows, and sums
  // of two rows that both hold with equality.
  RandomPolyhedra random(31337);
  int counts[2][2] = {};  // [target is kEq][entailed]
  for (int round = 0; round < 60; ++round) {
    const int n = static_cast<int>(random.Range(1, 4));
    Polyhedron p = random.Next(round, n);
    std::vector<Constraint> targets;
    for (int t = 0; t < 4; ++t) {
      targets.push_back(random.Row(n, Relation::kGe));
      targets.push_back(random.Row(n, Relation::kEq));
    }
    const std::vector<Constraint>& rows = p.constraints().rows();
    for (size_t a = 0; a < rows.size(); ++a) {
      const Constraint& b = rows[(a + 1) % rows.size()];
      Rational wa(random.Range(0, 2)), wb(random.Range(0, 2));
      Constraint combo;
      combo.rel = Relation::kGe;
      for (int v = 0; v < n; ++v) {
        combo.coeffs.push_back(rows[a].coeffs[v] * wa + b.coeffs[v] * wb);
      }
      combo.constant = rows[a].constant * wa + b.constant * wb +
                       Rational(random.Range(0, 2));
      targets.push_back(combo);
      if (rows[a].rel == Relation::kEq && b.rel == Relation::kEq) {
        combo.rel = Relation::kEq;
        combo.constant = rows[a].constant * wa + b.constant * wb;
        targets.push_back(std::move(combo));
      }
    }
    if (round % 5 == 4 && n >= 2) {
      std::vector<int64_t> diff(n, 0);
      diff[0] = 2;
      diff[1] = -2;
      targets.push_back(Eq(diff, 0));
    }
    for (const Constraint& target : targets) {
      bool expected = ReferenceEntails(p, target);
      EXPECT_EQ(p.Entails(target), expected)
          << "round " << round << " target " << target.ToString() << "\n"
          << p.ToString();
      ++counts[target.rel == Relation::kEq][expected];
    }
  }
  // Both answers are well represented, for both relations.
  for (const auto& by_answer : counts) {
    EXPECT_GT(by_answer[0], 20);
    EXPECT_GT(by_answer[1], 20);
  }
}

// Runs `body` with metrics on and returns the simplex solves it made.
int64_t SolvesDuring(const std::function<void()>& body) {
  obs::Metrics::Global().Reset();
  obs::Metrics::Global().Enable();
  body();
  obs::MetricsSnapshot snapshot = obs::Metrics::Global().Collect();
  obs::Metrics::Global().Disable();
  obs::Metrics::Global().Reset();
  auto it = snapshot.counters.find("simplex.solves");
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(PolyhedronTest, ValuesBuiltNonemptyAnswerWithoutAnLp) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "solve counts need TERMILOG_OBS";
  Polyhedron p = Polyhedron::NonNegativeOrthant(2);
  p.AddConstraint(Ge({-1, 0}, 4));  // x0 <= 4
  Polyhedron q = Polyhedron::NonNegativeOrthant(2);
  q.AddConstraint(Eq({1, -1}, 0));  // x0 = x1
  ASSERT_FALSE(p.IsEmpty());
  ASSERT_FALSE(q.IsEmpty());
  Result<Polyhedron> hull = Polyhedron::ConvexHull(p, q);
  ASSERT_TRUE(hull.ok());
  const Polyhedron widened = p.Widen(q);
  Result<Polyhedron> projected = q.Project({1});
  ASSERT_TRUE(projected.ok());
  const Polyhedron widened_copy = widened;
  const Polyhedron projected_copy = *projected;
  EXPECT_EQ(SolvesDuring([&] {
              EXPECT_FALSE(hull->IsEmpty());
              EXPECT_FALSE(widened.IsEmpty());
              EXPECT_FALSE(widened_copy.IsEmpty());
              EXPECT_FALSE(projected->IsEmpty());
              EXPECT_FALSE(projected_copy.IsEmpty());
            }),
            0);
  // Identical rows are the same set, even with emptiness not yet known;
  // a fresh value still answers IsEmpty by LP.
  const Polyhedron a = Polyhedron::FromSystem(hull->constraints());
  const Polyhedron b = Polyhedron::FromSystem(hull->constraints());
  EXPECT_TRUE(a.Identical(b));
  EXPECT_EQ(SolvesDuring([&] { EXPECT_TRUE(a.Contains(b)); }), 0);
  EXPECT_EQ(SolvesDuring([&] { EXPECT_FALSE(a.IsEmpty()); }), 1);
}

TEST(PolyhedronTest, BuiltValuesAgreeWithAFreshEmptinessTest) {
  // Hulls, widenings and projections of random pairs: whatever IsEmpty()
  // answers for a result, by a mark or by an LP, a fresh LP over its rows
  // must answer too.
  RandomPolyhedra random(4242);
  int nonempty = 0;
  for (int round = 0; round < 60; ++round) {
    const int n = static_cast<int>(random.Range(1, 4));
    const Polyhedron p = random.Next(round, n);
    const Polyhedron q = random.Next(round + 1, n);
    std::vector<Polyhedron> built;
    Result<Polyhedron> hull = Polyhedron::ConvexHull(p, q);
    ASSERT_TRUE(hull.ok());
    built.push_back(*hull);
    built.push_back(p.Widen(q));
    Result<Polyhedron> projected = q.Project({0});
    ASSERT_TRUE(projected.ok());
    built.push_back(*projected);
    for (const Polyhedron& value : built) {
      if (value.known_empty()) continue;  // no rows to test afresh
      const bool empty = value.IsEmpty();
      EXPECT_EQ(empty, Polyhedron::FromSystem(value.constraints()).IsEmpty())
          << "round " << round << "\n"
          << value.ToString();
      nonempty += empty ? 0 : 1;
    }
  }
  EXPECT_GT(nonempty, 60);
}

TEST(PolyhedronTest, IdenticalComparesRowsNotSets) {
  Polyhedron a = Polyhedron::Universe(1);
  a.AddConstraint(Ge({1}, 0));
  Polyhedron b = Polyhedron::Universe(1);
  b.AddConstraint(Ge({2}, 0));
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Identical(b));
  EXPECT_TRUE(a.Identical(a));
  EXPECT_FALSE(Polyhedron::Empty(1).Identical(Polyhedron::Universe(1)));
  EXPECT_FALSE(Polyhedron::Universe(1).Identical(Polyhedron::Universe(2)));
}

TEST(PolyhedronTest, ContainsPoint) {
  Polyhedron p = Polyhedron::NonNegativeOrthant(2);
  p.AddConstraint(Ge({-1, -1}, 4));  // x0 + x1 <= 4
  EXPECT_TRUE(p.Contains({Rational(1), Rational(2)}));
  EXPECT_FALSE(p.Contains({Rational(3), Rational(2)}));
  EXPECT_FALSE(p.Contains({Rational(-1), Rational(0)}));
}

TEST(PolyhedronTest, ProjectDropsDimension) {
  // { x0 = x1 + x2, x >= 0 } onto (x1, x2): the nonneg quadrant.
  Polyhedron p = Polyhedron::NonNegativeOrthant(3);
  p.AddConstraint(Eq({1, -1, -1}, 0));
  Result<Polyhedron> q = p.Project({1, 2});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsEmpty());
  EXPECT_TRUE(q->Entails(Ge({1, 0}, 0)));
  EXPECT_TRUE(q->Entails(Ge({0, 1}, 0)));
  EXPECT_FALSE(q->Entails(Ge({1, -1}, 0)));
}

TEST(PolyhedronTest, ConvexHullOfPoints) {
  // {x=0} hull {x=2} = [0,2].
  Polyhedron a = Polyhedron::Universe(1);
  a.AddConstraint(Eq({1}, 0));
  Polyhedron b = Polyhedron::Universe(1);
  b.AddConstraint(Eq({1}, -2));
  Result<Polyhedron> hull = Polyhedron::ConvexHull(a, b);
  ASSERT_TRUE(hull.ok());
  EXPECT_TRUE(hull->Contains({Rational(1)}));
  EXPECT_TRUE(hull->Contains({Rational(0)}));
  EXPECT_TRUE(hull->Contains({Rational(2)}));
  EXPECT_FALSE(hull->Contains({Rational(3)}));
  EXPECT_FALSE(hull->Contains({Rational(-1, 2)}));
}

TEST(PolyhedronTest, ConvexHullWithEmptyIsIdentity) {
  Polyhedron a = Polyhedron::NonNegativeOrthant(2);
  Polyhedron empty = Polyhedron::Empty(2);
  Result<Polyhedron> hull = Polyhedron::ConvexHull(a, empty);
  ASSERT_TRUE(hull.ok());
  EXPECT_TRUE(hull->Equals(a));
}

TEST(PolyhedronTest, ConvexHullAppendStyle) {
  // The append fixpoint join: {a1=0, a2=a3, a>=0} hull {a1+a2=a3, a1>=2,
  // a>=0} must entail a1+a2=a3.
  Polyhedron base = Polyhedron::NonNegativeOrthant(3);
  base.AddConstraint(Eq({1, 0, 0}, 0));
  base.AddConstraint(Eq({0, 1, -1}, 0));
  Polyhedron rec = Polyhedron::NonNegativeOrthant(3);
  rec.AddConstraint(Eq({1, 1, -1}, 0));
  rec.AddConstraint(Ge({1, 0, 0}, -2));
  Result<Polyhedron> hull = Polyhedron::ConvexHull(base, rec);
  ASSERT_TRUE(hull.ok());
  EXPECT_TRUE(hull->Entails(Eq({1, 1, -1}, 0)));
  EXPECT_TRUE(hull->Entails(Ge({1, 0, 0}, 0)));
  // And it must not invent a1 >= 2 (the base case has a1 = 0).
  EXPECT_FALSE(hull->Entails(Ge({1, 0, 0}, -2)));
}

TEST(PolyhedronTest, ConvexHullUnboundedDirections) {
  // {x0 >= 0, x1 = 0} hull {x0 = 0, x1 >= 0} contains the axes' hull:
  // the whole quadrant boundary triangle fan = quadrant itself? No:
  // conv of the two rays is {x >= 0, } the full quadrant between them.
  Polyhedron xaxis = Polyhedron::NonNegativeOrthant(2);
  xaxis.AddConstraint(Eq({0, 1}, 0));
  Polyhedron yaxis = Polyhedron::NonNegativeOrthant(2);
  yaxis.AddConstraint(Eq({1, 0}, 0));
  Result<Polyhedron> hull = Polyhedron::ConvexHull(xaxis, yaxis);
  ASSERT_TRUE(hull.ok());
  EXPECT_TRUE(hull->Contains({Rational(5), Rational(7)}));
  EXPECT_FALSE(hull->Contains({Rational(-1), Rational(0)}));
}

TEST(PolyhedronTest, WidenKeepsStableRows) {
  Polyhedron old_p = Polyhedron::NonNegativeOrthant(1);
  old_p.AddConstraint(Ge({-1}, 4));  // x0 <= 4
  Polyhedron new_p = Polyhedron::NonNegativeOrthant(1);
  new_p.AddConstraint(Ge({-1}, 6));  // x0 <= 6: bound drifted up
  Polyhedron widened = old_p.Widen(new_p);
  // x0 >= 0 survives, the drifting upper bound is dropped.
  EXPECT_TRUE(widened.Entails(Ge({1}, 0)));
  EXPECT_FALSE(widened.Entails(Ge({-1}, 100)));
  EXPECT_FALSE(widened.IsEmpty());
}

TEST(PolyhedronTest, WidenKeepsStableHalfOfEquality) {
  // Regression for the e/t/n grammar fixpoint: old = {x0 = 2 + x1},
  // new = {2 + x1 <= x0 <= 6 + x1}. The equality is gone, but its >=
  // direction is invariant and must survive (an equality is two
  // inequalities).
  Polyhedron old_p = Polyhedron::NonNegativeOrthant(2);
  old_p.AddConstraint(Eq({1, -1}, -2));
  Polyhedron new_p = Polyhedron::NonNegativeOrthant(2);
  new_p.AddConstraint(Ge({1, -1}, -2));
  new_p.AddConstraint(Ge({-1, 1}, 6));
  Polyhedron widened = old_p.Widen(new_p);
  EXPECT_TRUE(widened.Entails(Ge({1, -1}, -2)));   // x0 >= 2 + x1 kept
  EXPECT_FALSE(widened.Entails(Ge({-1, 1}, 2)));   // x0 <= 2 + x1 dropped
  EXPECT_FALSE(widened.Entails(Ge({-1, 1}, 6)));   // no drifting upper bound
}

TEST(PolyhedronTest, WidenKeepsNewEqualityEntailedByOld) {
  // Regression for the split/3 fixpoint: old = {x0 = x1, x2 = 0},
  // new = {x0 = x1 + x2, ...}. The new equality already held on old and
  // must be retained (H79 second clause, equalities only).
  Polyhedron old_p = Polyhedron::NonNegativeOrthant(3);
  old_p.AddConstraint(Eq({1, -1, 0}, 0));
  old_p.AddConstraint(Eq({0, 0, 1}, 0));
  Polyhedron new_p = Polyhedron::NonNegativeOrthant(3);
  new_p.AddConstraint(Eq({1, -1, -1}, 0));
  Polyhedron widened = old_p.Widen(new_p);
  EXPECT_TRUE(widened.Entails(Eq({1, -1, -1}, 0)));
  // But old's broken rows are gone.
  EXPECT_FALSE(widened.Entails(Eq({0, 0, 1}, 0)));
}

TEST(PolyhedronTest, WidenIsAnUpperBoundOfBoth) {
  Polyhedron a = Polyhedron::NonNegativeOrthant(2);
  a.AddConstraint(Eq({1, -1}, 0));
  Polyhedron b = Polyhedron::NonNegativeOrthant(2);
  b.AddConstraint(Ge({1, -1}, 0));
  Polyhedron w = a.Widen(b);
  EXPECT_TRUE(w.Contains(a));
  EXPECT_TRUE(w.Contains(b));
}

TEST(PolyhedronTest, WidenFromEmptyIsNewer) {
  Polyhedron empty = Polyhedron::Empty(1);
  Polyhedron p = Polyhedron::NonNegativeOrthant(1);
  EXPECT_TRUE(empty.Widen(p).Equals(p));
}

TEST(PolyhedronTest, InstantiateThroughAffineMap) {
  // append knowledge {z0 + z1 = z2} instantiated with z0 := v0,
  // z1 := 2 + v1 + v2, z2 := v3 gives v0 + v1 + v2 - v3 + 2 = 0.
  Polyhedron knowledge = Polyhedron::Universe(3);
  knowledge.AddConstraint(Eq({1, 1, -1}, 0));
  std::vector<LinearExpr> images(3);
  images[0] = LinearExpr::Variable(0);
  images[1] = LinearExpr(Rational(2)) + LinearExpr::Variable(1) +
              LinearExpr::Variable(2);
  images[2] = LinearExpr::Variable(3);
  ConstraintSystem out = knowledge.Instantiate(images, 4);
  ASSERT_EQ(out.size(), 1u);
  const Constraint& row = out.rows()[0];
  EXPECT_EQ(row.rel, Relation::kEq);
  EXPECT_EQ(row.constant, Rational(2));
  EXPECT_EQ(row.coeffs[0], Rational(1));
  EXPECT_EQ(row.coeffs[1], Rational(1));
  EXPECT_EQ(row.coeffs[2], Rational(1));
  EXPECT_EQ(row.coeffs[3], Rational(-1));
}

TEST(PolyhedronTest, MinimizeDropsRedundancy) {
  Polyhedron p = Polyhedron::NonNegativeOrthant(2);
  p.AddConstraint(Ge({1, 1}, 0));  // implied by the orthant
  p.Minimize();
  EXPECT_EQ(p.constraints().size(), 2u);
}

TEST(PolyhedronTest, EqualsIsSemanticNotSyntactic) {
  Polyhedron a = Polyhedron::Universe(1);
  a.AddConstraint(Ge({1}, 0));
  a.AddConstraint(Ge({2}, 0));
  Polyhedron b = Polyhedron::Universe(1);
  b.AddConstraint(Ge({1}, 0));
  EXPECT_TRUE(a.Equals(b));
}

}  // namespace
}  // namespace termilog
