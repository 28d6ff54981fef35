#include "fm/fourier_motzkin.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fm/polyhedron.h"
#include "fm_fixture.h"
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

TEST(FourierMotzkinTest, EliminateBetweenBounds) {
  // x1 <= x0, x1 >= x2  --(eliminate x1)-->  x0 >= x2.
  ConstraintSystem sys(3);
  sys.Add(Ge({1, -1, 0}, 0));
  sys.Add(Ge({0, 1, -1}, 0));
  ASSERT_TRUE(FourierMotzkin::EliminateVariable(&sys, 1).ok());
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys.rows()[0].coeffs[0], Rational(1));
  EXPECT_EQ(sys.rows()[0].coeffs[1], Rational(0));
  EXPECT_EQ(sys.rows()[0].coeffs[2], Rational(-1));
}

TEST(FourierMotzkinTest, EliminateUnpairedRowsDrop) {
  // Only lower bounds on x0: projection is the whole plane.
  ConstraintSystem sys(2);
  sys.Add(Ge({1, -1}, 0));
  sys.Add(Ge({1, 0}, -2));
  ASSERT_TRUE(FourierMotzkin::EliminateVariable(&sys, 0).ok());
  EXPECT_TRUE(sys.rows().empty());
}

TEST(FourierMotzkinTest, EqualityPivotUsed) {
  // x0 = x1 + 1, x0 <= 5  ->  x1 <= 4.
  ConstraintSystem sys(2);
  sys.Add(Eq({1, -1}, -1));
  sys.Add(Ge({-1, 0}, 5));
  ASSERT_TRUE(FourierMotzkin::EliminateVariable(&sys, 0).ok());
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys.rows()[0].coeffs[1], Rational(-1));
  EXPECT_EQ(sys.rows()[0].constant, Rational(4));
}

TEST(FourierMotzkinTest, ProjectCompactsColumns) {
  // x0 >= 0, x1 = x0 + 2, keep x1: x1 >= 2.
  ConstraintSystem sys(2);
  sys.Add(Ge({1, 0}, 0));
  sys.Add(Eq({-1, 1}, -2));
  Result<ConstraintSystem> projected = FourierMotzkin::Project(sys, {1});
  ASSERT_TRUE(projected.ok());
  ASSERT_EQ(projected->num_vars(), 1);
  ASSERT_EQ(projected->size(), 1u);
  EXPECT_EQ(projected->rows()[0].coeffs[0], Rational(1));
  EXPECT_EQ(projected->rows()[0].constant, Rational(-2));
}

TEST(FourierMotzkinTest, ProjectionPreservesFeasiblePoints) {
  // Random-ish 4-var system; any feasible point's projection must satisfy
  // the projected system, and any projected-feasible point must extend.
  ConstraintSystem sys(4);
  sys.Add(Ge({1, 1, 0, 0}, -2));   // x0 + x1 >= 2
  sys.Add(Ge({-1, 0, 1, 0}, 3));   // x2 >= x0 - 3
  sys.Add(Ge({0, -2, 0, 1}, 1));   // x3 >= 2 x1 - 1
  sys.Add(Eq({1, -1, 0, 0}, 0));   // x0 = x1
  Result<ConstraintSystem> projected = FourierMotzkin::Project(sys, {0, 2});
  ASSERT_TRUE(projected.ok());
  // (x0, x2) = (1, 0): from x0=x1=1, x2 >= -2 ok, pick x3 >= 1.
  EXPECT_TRUE(projected->SatisfiedBy({Rational(1), Rational(0)}));
  // Verify semantic equivalence by LP on a grid of objective directions.
  std::vector<bool> free4(4, true), free2(2, true);
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dz = -1; dz <= 1; ++dz) {
      std::vector<Rational> obj4 = {Rational(dx), Rational(), Rational(dz),
                                    Rational()};
      std::vector<Rational> obj2 = {Rational(dx), Rational(dz)};
      LpResult full = SimplexSolver::Minimize(sys, obj4, free4);
      LpResult proj = SimplexSolver::Minimize(*projected, obj2, free2);
      ASSERT_EQ(full.status, proj.status);
      if (full.status == LpStatus::kOptimal) {
        EXPECT_EQ(full.objective, proj.objective);
      }
    }
  }
}

TEST(FourierMotzkinTest, InfeasibilityPreserved) {
  // x0 >= 1, x0 <= 0: eliminating x0 leaves a violated constant row.
  ConstraintSystem sys(1);
  sys.Add(Ge({1}, -1));
  sys.Add(Ge({-1}, 0));
  Result<ConstraintSystem> projected = FourierMotzkin::Project(sys, {});
  ASSERT_TRUE(projected.ok());
  // Projection onto no variables: infeasible iff Simplify fails.
  ConstraintSystem out = *projected;
  EXPECT_FALSE(out.Simplify());
}

TEST(FourierMotzkinTest, RowLimitTriggersResourceExhausted) {
  // Many pos/neg pairs on x0 with a tiny limit.
  ConstraintSystem sys(2);
  for (int i = 1; i <= 12; ++i) {
    sys.Add(Ge({1, static_cast<int64_t>(-i)}, 0));
    sys.Add(Ge({-1, static_cast<int64_t>(i)}, 1));
  }
  FmOptions options;
  options.row_limit = 10;
  Status status = FourierMotzkin::EliminateVariable(&sys, 0, options);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(FourierMotzkinTest, LpPruneRemovesRedundantRow) {
  ConstraintSystem sys(2);
  sys.Add(Ge({1, 0}, 0));    // x0 >= 0
  sys.Add(Ge({0, 1}, 0));    // x1 >= 0
  sys.Add(Ge({1, 1}, 0));    // redundant: sum of the others
  FourierMotzkin::LpPruneRedundant(&sys);
  EXPECT_EQ(sys.size(), 2u);
}

TEST(FourierMotzkinTest, LpPruneKeepsBindingRows) {
  ConstraintSystem sys(2);
  sys.Add(Ge({1, 0}, 0));
  sys.Add(Ge({0, 1}, 0));
  sys.Add(Ge({-1, -1}, 5));  // x0 + x1 <= 5: binding
  size_t before = sys.size();
  FourierMotzkin::LpPruneRedundant(&sys);
  EXPECT_EQ(sys.size(), before);
}

// Reference implementation of LpPruneRedundant as it was historically
// written: one primal LP, min coeffs . x over the other rows, per row, with
// per-row vector::erase, iterating from the end. The production version
// decides each row through the Farkas dual and defers removal to one stable
// compaction pass; the surviving rows and their order must be identical.
void ReferenceLpPrune(ConstraintSystem* system) {
  std::vector<bool> all_free(system->num_vars(), true);
  for (size_t i = system->rows().size(); i-- > 0;) {
    const Constraint row = system->rows()[i];
    if (row.rel == Relation::kEq) continue;
    ConstraintSystem rest(system->num_vars());
    for (size_t j = 0; j < system->rows().size(); ++j) {
      if (j != i) rest.Add(system->rows()[j]);
    }
    LpResult lp = SimplexSolver::Minimize(rest, row.coeffs, all_free);
    bool redundant = false;
    if (lp.status == LpStatus::kInfeasible) {
      redundant = true;
    } else if (lp.status == LpStatus::kOptimal) {
      redundant = (lp.objective + row.constant).sign() >= 0;
    }
    if (redundant) {
      system->mutable_rows().erase(system->mutable_rows().begin() + i);
    }
  }
}

void ExpectPruneMatchesReference(const ConstraintSystem& input,
                                 const std::string& label) {
  ConstraintSystem expected = input;
  ReferenceLpPrune(&expected);
  ConstraintSystem actual = input;
  FourierMotzkin::LpPruneRedundant(&actual);
  ASSERT_EQ(actual.size(), expected.size()) << label << "\n"
                                            << input.ToString();
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(actual.rows()[i] == expected.rows()[i])
        << label << " row " << i << "\n"
        << input.ToString();
  }
}

class XorShift {
 public:
  explicit XorShift(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % (hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// `num_rows` random rows, about `eq_percent` of them equalities. With an
// `anchor` point every row holds there (a feasible system); without one the
// constants are random. Systems of three or more rows then get two rows the
// others entail: a weakened copy of row 0 and the sum of rows 1 and 2.
ConstraintSystem RandomSystem(XorShift* rng, int num_vars, int num_rows,
                              int eq_percent,
                              const std::vector<int64_t>* anchor = nullptr) {
  ConstraintSystem sys(num_vars);
  for (int r = 0; r < num_rows; ++r) {
    Constraint row;
    row.rel = eq_percent > 0 && rng->Range(0, 99) < eq_percent
                  ? Relation::kEq
                  : Relation::kGe;
    int64_t at_anchor = 0;
    for (int v = 0; v < num_vars; ++v) {
      int64_t c = rng->Range(-3, 3);
      row.coeffs.emplace_back(c);
      if (anchor != nullptr) at_anchor += c * (*anchor)[v];
    }
    if (anchor == nullptr) {
      row.constant = Rational(rng->Range(-2, 6));
    } else {
      int64_t slack = row.rel == Relation::kEq ? 0 : rng->Range(0, 3);
      row.constant = Rational(slack - at_anchor);
    }
    sys.Add(std::move(row));
  }
  if (num_rows < 3) return sys;
  Constraint weak = sys.rows()[0];
  weak.rel = Relation::kGe;
  weak.constant += Rational(rng->Range(1, 4));
  sys.Add(std::move(weak));
  Constraint combo = sys.rows()[1];
  combo.rel = Relation::kGe;
  for (int v = 0; v < num_vars; ++v) {
    combo.coeffs[v] += sys.rows()[2].coeffs[v];
  }
  combo.constant += sys.rows()[2].constant;
  sys.Add(std::move(combo));
  return sys;
}

std::vector<int64_t> RandomPoint(XorShift* rng, int num_vars) {
  std::vector<int64_t> point;
  for (int v = 0; v < num_vars; ++v) point.push_back(rng->Range(-2, 2));
  return point;
}

TEST(FourierMotzkinTest, LpPruneMatchesEraseReferenceAndKeepsOrder) {
  // Deterministic pseudo-random systems with deliberately redundant rows.
  XorShift rng(12345);
  for (int round = 0; round < 8; ++round) {
    ExpectPruneMatchesReference(RandomSystem(&rng, 3, 5, 0),
                                "round " + std::to_string(round));
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceWithEqualityRows) {
  // kEq rows enter the dual as free multipliers. Anchored systems stay
  // feasible despite the equalities; unanchored ones mostly do not.
  XorShift rng(777);
  for (int round = 0; round < 24; ++round) {
    int num_vars = static_cast<int>(rng.Range(2, 5));
    int num_rows = static_cast<int>(rng.Range(3, 12));
    std::vector<int64_t> anchor = RandomPoint(&rng, num_vars);
    ConstraintSystem sys = RandomSystem(&rng, num_vars, num_rows, 25,
                                        round % 3 == 2 ? nullptr : &anchor);
    ExpectPruneMatchesReference(sys, "round " + std::to_string(round));
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceOnInfeasibleSystems) {
  // An empty system entails every row, so rows are pruned while the rest
  // stays empty; the ones the emptiness hinges on survive.
  ConstraintSystem pair(2);
  pair.Add(Ge({1, 0}, -1));   // x0 >= 1
  pair.Add(Ge({0, 1}, 0));    // x1 >= 0
  pair.Add(Ge({-1, 0}, 0));   // x0 <= 0
  pair.Add(Ge({1, 1}, 0));
  ExpectPruneMatchesReference(pair, "contradictory bounds");

  ConstraintSystem violated(2);  // a violated constant row (unsimplified)
  violated.Add(Ge({1, 0}, 0));
  violated.Add(Ge({0, 0}, -1));
  violated.Add(Ge({0, 1}, 2));
  ExpectPruneMatchesReference(violated, "violated constant row");

  ConstraintSystem eq_clash(2);  // x0 = x1 and x0 = x1 + 1
  eq_clash.Add(Eq({1, -1}, 0));
  eq_clash.Add(Ge({1, 0}, 0));
  eq_clash.Add(Eq({1, -1}, -1));
  eq_clash.Add(Ge({0, -1}, 3));
  ExpectPruneMatchesReference(eq_clash, "clashing equalities");

  // Random feasible systems made empty by a row and its strict negation,
  // inserted at a random position.
  XorShift rng(4242);
  for (int round = 0; round < 16; ++round) {
    int num_vars = static_cast<int>(rng.Range(1, 5));
    std::vector<int64_t> anchor = RandomPoint(&rng, num_vars);
    ConstraintSystem sys = RandomSystem(
        &rng, num_vars, static_cast<int>(rng.Range(2, 10)), 10, &anchor);
    Constraint row = sys.rows()[rng.Range(0, sys.size() - 1)];
    row.rel = Relation::kGe;
    for (Rational& c : row.coeffs) c.Negate();
    row.constant = -row.constant - Rational(1);
    std::vector<Constraint>& rows = sys.mutable_rows();
    rows.insert(rows.begin() + rng.Range(0, rows.size()), std::move(row));
    ExpectPruneMatchesReference(sys, "round " + std::to_string(round));
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceOnUnboundedRows) {
  // A row whose primal minimum over the others is unbounded (here x1 >= 0
  // and x2 >= 0) has an infeasible dual, so keeping it needs the rest to
  // have a point: the origin witnesses one in the first system, only an LP
  // in the second.
  ConstraintSystem orthant(3);
  orthant.Add(Ge({1, 0, 0}, 0));
  orthant.Add(Ge({0, 1, 0}, 0));
  orthant.Add(Ge({0, 0, 1}, 0));
  orthant.Add(Ge({1, -1, 0}, 2));
  orthant.Add(Ge({1, 1, 1}, 0));  // entailed
  ExpectPruneMatchesReference(orthant, "orthant at the origin");

  ConstraintSystem shifted(3);
  shifted.Add(Ge({1, 0, 0}, -1));
  shifted.Add(Ge({0, 1, 0}, -1));
  shifted.Add(Ge({0, 0, 1}, -1));
  shifted.Add(Ge({1, -1, 0}, 2));
  shifted.Add(Ge({1, 1, 1}, -2));  // entailed: the sum is >= 3
  ExpectPruneMatchesReference(shifted, "orthant away from the origin");

  XorShift rng(99);
  for (int round = 0; round < 16; ++round) {
    int num_vars = static_cast<int>(rng.Range(2, 5));
    std::vector<int64_t> anchor = RandomPoint(&rng, num_vars);
    ConstraintSystem sys(num_vars);
    for (int v = 0; v < num_vars; ++v) {  // lower bounds only: unbounded
      Constraint bound;
      bound.coeffs.resize(num_vars);
      bound.coeffs[v] = Rational(1);
      bound.constant = Rational(-anchor[v] + rng.Range(0, 2));
      sys.Add(std::move(bound));
    }
    sys.Append(RandomSystem(&rng, num_vars, static_cast<int>(rng.Range(1, 6)),
                            0, &anchor));
    ExpectPruneMatchesReference(sys, "round " + std::to_string(round));
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceOnOneAndTwoRowSystems) {
  // Every one-row system and every ordered pair over a small row alphabet,
  // constant rows (held and violated) and equalities included: the shapes
  // where the rest is empty or a single row.
  std::vector<Constraint> alphabet;
  for (Relation rel : {Relation::kGe, Relation::kEq}) {
    for (std::vector<int64_t> coeffs :
         {std::vector<int64_t>{0, 0}, {1, 0}, {-1, 0}, {1, -1}, {2, 1}}) {
      for (int64_t constant : {-1, 0, 2}) {
        Constraint row = Ge(coeffs, constant);
        row.rel = rel;
        alphabet.push_back(std::move(row));
      }
    }
  }
  for (size_t a = 0; a < alphabet.size(); ++a) {
    ConstraintSystem one(2);
    one.Add(alphabet[a]);
    ExpectPruneMatchesReference(one, alphabet[a].ToString());
    for (size_t b = 0; b < alphabet.size(); ++b) {
      ConstraintSystem two(2);
      two.Add(alphabet[a]);
      two.Add(alphabet[b]);
      ExpectPruneMatchesReference(
          two, alphabet[a].ToString() + " ; " + alphabet[b].ToString());
    }
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceOnRandomSystemsUpTo5x40) {
  XorShift rng(2026);
  for (int num_vars = 1; num_vars <= 5; ++num_vars) {
    for (int num_rows : {4, 10, 20, 40}) {
      std::vector<int64_t> anchor = RandomPoint(&rng, num_vars);
      for (int eq_percent : {0, 5}) {
        std::string label = std::to_string(num_vars) + "x" +
                            std::to_string(num_rows) + " eq" +
                            std::to_string(eq_percent);
        ExpectPruneMatchesReference(
            RandomSystem(&rng, num_vars, num_rows, eq_percent, &anchor),
            label + " anchored");
        ExpectPruneMatchesReference(
            RandomSystem(&rng, num_vars, num_rows, eq_percent), label);
      }
    }
  }
}

TEST(FourierMotzkinTest, LpPruneMatchesReferenceOnHarvestedCorpusSystems) {
  // The largest FM-intermediate prune inputs of nnf, gcd_subtract and
  // deriv (tests/data/fm_prune_inputs.txt).
  std::vector<NamedSystem> inputs = LoadFmPruneInputs();
  ASSERT_EQ(inputs.size(), 3u);
  for (const NamedSystem& input : inputs) {
    ConstraintSystem pruned = input.system;
    FourierMotzkin::LpPruneRedundant(&pruned);
    EXPECT_LT(pruned.size(), input.system.size()) << input.name;
    ExpectPruneMatchesReference(input.system, input.name);
  }
}

// Project without the history filter: a loop of EliminateVariable, whose
// every step starts from fresh histories (and one step never filters),
// eliminating the variable of least pairing growth first.
Result<ConstraintSystem> SingleStepProject(const ConstraintSystem& system,
                                           const std::vector<int>& keep,
                                           const FmOptions& options) {
  std::vector<bool> keep_mask(system.num_vars(), false);
  for (int var : keep) keep_mask[var] = true;
  ConstraintSystem work = system;
  work.Simplify();
  while (true) {
    int best = -1;
    int64_t best_cost = 0;
    for (int v = 0; v < work.num_vars(); ++v) {
      if (keep_mask[v]) continue;
      int64_t pos = 0, neg = 0;
      bool in_eq = false;
      for (const Constraint& row : work.rows()) {
        const int sign = row.coeffs[v].sign();
        in_eq |= sign != 0 && row.rel == Relation::kEq;
        pos += sign > 0;
        neg += sign < 0;
      }
      if (pos + neg == 0) continue;
      const int64_t cost = in_eq ? -1 : pos * neg;
      if (best < 0 || cost < best_cost) {
        best = v;
        best_cost = cost;
      }
    }
    if (best < 0) break;
    Status status = FourierMotzkin::EliminateVariable(&work, best, options);
    if (!status.ok()) return status;
  }
  ConstraintSystem out(static_cast<int>(keep.size()));
  for (const Constraint& row : work.rows()) {
    Constraint compact = row;
    compact.coeffs.clear();
    for (int var : keep) compact.coeffs.push_back(row.coeffs[var]);
    out.Add(std::move(compact));
  }
  out.Simplify();
  return out;
}

// A random system for the history filter: 3-7 variables and 4-80 sparse
// rows over small coefficients, with kEq rows, scaled duplicates and
// opposite-row pairs (a band, or a contradiction) mixed in.
ConstraintSystem FilterTestSystem(XorShift* rng) {
  const int num_vars = static_cast<int>(rng->Range(3, 7));
  const int num_rows = static_cast<int>(
      rng->Range(0, 3) == 0 ? rng->Range(56, 80) : rng->Range(4, 24));
  ConstraintSystem sys(num_vars);
  for (int r = 0; r < num_rows; ++r) {
    const int64_t kind = rng->Range(0, 9);
    if (kind <= 1 && r > 0) {  // a scaled duplicate
      sys.Add(sys.rows()[rng->Range(0, r - 1)].Scaled(
          Rational(rng->Range(2, 3))));
      continue;
    }
    if (kind == 2 && r > 0) {  // the opposite of an earlier row, shifted
      Constraint row = sys.rows()[rng->Range(0, r - 1)];
      row.rel = Relation::kGe;
      for (Rational& c : row.coeffs) c.Negate();
      row.constant = -row.constant + Rational(rng->Range(-1, 2));
      sys.Add(std::move(row));
      continue;
    }
    Constraint row;
    row.rel = kind == 3 ? Relation::kEq : Relation::kGe;
    for (int v = 0; v < num_vars; ++v) {
      row.coeffs.emplace_back(rng->Range(0, 1) == 0 ? rng->Range(-2, 2) : 0);
    }
    row.constant = Rational(rng->Range(-2, 6));
    sys.Add(std::move(row));
  }
  return sys;
}

// Checks Project, with the default options, with lp_prune off and with
// threshold 8, against the default SingleStepProject as sets (every one is
// the same projection). Returns the number of comparisons made: a
// projection past `row_limit` rows is skipped.
int ExpectFilteredProjectionMatches(const ConstraintSystem& system,
                                    const std::vector<int>& keep,
                                    const std::string& label,
                                    size_t row_limit = 50000) {
  FmOptions defaults;
  defaults.row_limit = row_limit;
  Result<ConstraintSystem> reference =
      SingleStepProject(system, keep, defaults);
  if (!reference.ok()) return 0;
  const Polyhedron expected =
      Polyhedron::FromSystem(std::move(reference).value());
  FmOptions unpruned = defaults;
  unpruned.lp_prune = false;
  FmOptions threshold8 = defaults;
  threshold8.lp_prune_threshold = 8;
  int compared = 0;
  for (const FmOptions& options : {defaults, unpruned, threshold8}) {
    Result<ConstraintSystem> filtered =
        FourierMotzkin::Project(system, keep, options);
    if (!filtered.ok()) continue;
    ++compared;
    Polyhedron actual = Polyhedron::FromSystem(std::move(filtered).value());
    EXPECT_TRUE(actual.Equals(expected))
        << label << " (lp_prune " << options.lp_prune << ", threshold "
        << options.lp_prune_threshold << ")\n"
        << system.ToString() << "filtered:\n"
        << actual.ToString() << "reference:\n"
        << expected.ToString();
  }
  return compared;
}

TEST(FourierMotzkinTest, FilteredProjectionEqualsSingleStepReference) {
  // The history filter drops rows without an LP; the projection must stay
  // the same set. First the lifted hull systems of nnf, gcd_subtract and
  // deriv (tests/data/hull_inputs.txt), where the filter fires.
  obs::Metrics::Global().Reset();
  obs::Metrics::Global().Enable();
  std::vector<NamedSystem> hulls = LoadHullInputs();
  ASSERT_GE(hulls.size(), 50u);
  for (const NamedSystem& hull : hulls) {
    ASSERT_TRUE(
        FourierMotzkin::Project(hull.system, HullKeep(hull.system)).ok());
  }
  std::map<std::string, int64_t> counters =
      obs::Metrics::Global().Collect().counters;
  obs::Metrics::Global().Disable();
  obs::Metrics::Global().Reset();
  if (obs::kCompiledIn) {
    EXPECT_GT(counters["fm.rows_filtered"], 0);
  }
  for (const NamedSystem& hull : hulls) {
    EXPECT_EQ(ExpectFilteredProjectionMatches(hull.system,
                                              HullKeep(hull.system),
                                              hull.name),
              3);
  }
  // Then seeded random systems, more than 64 rows in about a quarter. A
  // row limit of 400 skips the few whose projection blows up.
  XorShift rng(1990);
  int compared = 0, wide = 0;
  for (int round = 0; round < 2200; ++round) {
    ConstraintSystem sys = FilterTestSystem(&rng);
    std::vector<int> keep;
    for (int v = 0; v < sys.num_vars(); ++v) {
      if (rng.Range(0, 2) == 0) keep.push_back(v);
    }
    const int made = ExpectFilteredProjectionMatches(
        sys, keep, "round " + std::to_string(round), 400);
    compared += made;
    if (sys.size() > 64) wide += made;
  }
  EXPECT_GE(compared, 6300);
  EXPECT_GE(wide, 900);
}

TEST(FourierMotzkinTest, CombineMultipliersAreGcdReduced) {
  // Eliminating x0 from 4*x0 - x1 >= 0 and -6*x0 + x2 >= 0: the raw FM
  // multipliers (6, 4) reduce by gcd 2 to (3, 2), so before Simplify the
  // combined row is -3*x1 + 2*x2 >= 0 (not -6*x1 + 4*x2).
  ConstraintSystem sys(3);
  sys.Add(Ge({4, -1, 0}, 0));
  sys.Add(Ge({-6, 0, 1}, 0));
  ASSERT_TRUE(FourierMotzkin::EliminateVariable(&sys, 0).ok());
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys.rows()[0].coeffs[0], Rational(0));
  EXPECT_EQ(sys.rows()[0].coeffs[1], Rational(-3));
  EXPECT_EQ(sys.rows()[0].coeffs[2], Rational(2));
  EXPECT_EQ(sys.rows()[0].constant, Rational(0));
}

TEST(FourierMotzkinTest, PaperExample41Elimination) {
  // The w1/w2 elimination of Example 4.1: columns (w1, w2, theta, eta).
  //   -w1            + theta          >= 0     (P)
  //    w1                             >= 0     (X)
  //    w1 + w2                        >= 0     (E)  [x2]
  //   -w2                      - eta  >= 0     (P1)
  //   2 w1                            >= delta (const row; delta = 1)
  ConstraintSystem sys(4);
  sys.Add(Ge({-1, 0, 1, 0}, 0));
  sys.Add(Ge({1, 0, 0, 0}, 0));
  sys.Add(Ge({1, 1, 0, 0}, 0));
  sys.Add(Ge({1, 1, 0, 0}, 0));
  sys.Add(Ge({0, -1, 0, -1}, 0));
  sys.Add(Ge({2, 0, 0, 0}, -1));
  Result<ConstraintSystem> projected = FourierMotzkin::Project(sys, {2, 3});
  ASSERT_TRUE(projected.ok());
  // With eta = theta the system must reduce to 2*theta >= 1 (+ theta >= eta
  // variants); check the binding facts via LP: min theta subject to system
  // and theta = eta is 1/2.
  ConstraintSystem check = *projected;
  check.Add(Eq({1, -1}, 0));
  std::vector<bool> free2(2, true);
  LpResult r = SimplexSolver::Minimize(check, {Rational(1), Rational(0)},
                                       free2);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(1, 2));
}

}  // namespace
}  // namespace termilog
