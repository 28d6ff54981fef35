#include "constraints/inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "gen/gen.h"
#include "obs/obs.h"
#include "program/parser.h"
#include "util/governor.h"
#include "util/string_util.h"

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

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

PredId Pred(const Program& p, const char* name, int arity) {
  return PredId{p.symbols().Lookup(name), arity};
}

TEST(InferenceTest, AppendThreeVariableConstraint) {
  // The paper's Section 3 imported constraint:
  // 0 = append1 + append2 - append3.
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  Polyhedron append = db.Get(Pred(p, "append", 3));
  EXPECT_TRUE(append.Entails(Eq({1, 1, -1}, 0)));
  EXPECT_TRUE(append.Entails(Ge({1, 0, 0}, 0)));
}

TEST(InferenceTest, ExprParserSameSccConstraint) {
  // The paper's Example 6.1 imported constraint t1 >= 2 + t2 (and the same
  // for e and n), inferred across the mutually recursive SCC.
  Program p = MustParse(R"(
    e(L, T) :- t(L, ['+'|C]), e(C, T).
    e(L, T) :- t(L, T).
    t(L, T) :- n(L, ['*'|C]), t(C, T).
    t(L, T) :- n(L, T).
    n(['('|A], T) :- e(A, [')'|T]).
    n([L|T], T) :- z(L).
  )");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  for (const char* name : {"e", "t", "n"}) {
    Polyhedron knowledge = db.Get(Pred(p, name, 2));
    EXPECT_TRUE(knowledge.Entails(Ge({1, -1}, -2)))
        << name << ":\n" << knowledge.ToString();
  }
}

TEST(InferenceTest, ReverseLengthEquality) {
  Program p = MustParse(R"(
    rev([], []).
    rev([X|Xs], R) :- rev(Xs, T), append(T, [X], R).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
  )");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  // |rev1| = |rev2| exactly (reverse preserves size).
  EXPECT_TRUE(db.Get(Pred(p, "rev", 2)).Entails(Eq({1, -1}, 0)));
}

TEST(InferenceTest, PartitionSplitsSizes) {
  Program p = MustParse(R"(
    part(P, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- P < X, part(P, Xs, L, G).
  )");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  // part2 = part3 + part4.
  EXPECT_TRUE(db.Get(Pred(p, "part", 4)).Entails(Eq({0, 1, -1, -1}, 0)));
}

TEST(InferenceTest, MinusArithmeticIdentity) {
  Program p = MustParse(
      "minus(X, z, X). minus(s(X), s(Y), Z) :- minus(X, Y, Z).");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  // minus1 = minus2 + minus3.
  EXPECT_TRUE(db.Get(Pred(p, "minus", 3)).Entails(Eq({1, -1, -1}, 0)));
}

TEST(InferenceTest, EmptyPredicateStaysEmpty) {
  // p has no base case: no derivable facts at all.
  Program p = MustParse("p(f(X)) :- p(X).");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  EXPECT_TRUE(db.Get(Pred(p, "p", 1)).IsEmpty());
}

TEST(InferenceTest, EdbDependentRuleDerivesNothingExtra) {
  // q depends on unknown EDB e: sizes unconstrained beyond nonnegativity,
  // but the +2 from the cons cell survives.
  Program p = MustParse("q([X|Xs]) :- e(X, Xs).");
  ArgSizeDb db;
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  Polyhedron q = db.Get(Pred(p, "q", 1));
  EXPECT_TRUE(q.Entails(Ge({1}, -2)));   // |arg| >= 2
  EXPECT_FALSE(q.Entails(Ge({1}, -3)));
}

TEST(InferenceTest, SuppliedEntriesAreNotOverwritten) {
  Program p = MustParse("q(X) :- e(X).");
  ArgSizeDb db;
  Polyhedron supplied = ArgSizeDb::ParseSpec(1, "a1 >= 7").value();
  db.Set(Pred(p, "e", 1), supplied);
  ASSERT_TRUE(ConstraintInference::Run(p, &db).ok());
  EXPECT_TRUE(db.Get(Pred(p, "e", 1)).Entails(Ge({1}, -7)));
  // And q picked the knowledge up through instantiation.
  EXPECT_TRUE(db.Get(Pred(p, "q", 1)).Entails(Ge({1}, -7)));
}

TEST(InferenceTest, WideningForcesConvergenceOnCounters) {
  // nat grows unboundedly: the loop must converge by widening, keeping
  // nonnegativity but no upper bound.
  Program p = MustParse("nat(z). nat(s(N)) :- nat(N).");
  ArgSizeDb db;
  std::map<PredId, InferenceStats> stats;
  ASSERT_TRUE(
      ConstraintInference::Run(p, &db, InferenceOptions(), &stats).ok());
  Polyhedron nat = db.Get(Pred(p, "nat", 1));
  EXPECT_FALSE(nat.IsEmpty());
  EXPECT_TRUE(nat.Entails(Ge({1}, 0)));
  EXPECT_FALSE(nat.Entails(Ge({-1}, 1000)));  // no fake upper bound
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats.begin()->second.reached_fixpoint);
}

TEST(InferenceTest, StatsReportSweeps) {
  Program p = MustParse(
      "append([],Ys,Ys). append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).");
  ArgSizeDb db;
  std::map<PredId, InferenceStats> stats;
  ASSERT_TRUE(
      ConstraintInference::Run(p, &db, InferenceOptions(), &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GE(stats.begin()->second.sweeps, 2);
}

TEST(InferenceTest, RuleTransferOnEmptyBodyPolyhedronIsEmpty) {
  Program p = MustParse("q(X) :- r(X). r(X) :- r(X).");
  ArgSizeDb db;
  std::map<PredId, Polyhedron> current;
  current.emplace(Pred(p, "r", 1), Polyhedron::Empty(1));
  Result<Polyhedron> q = ConstraintInference::RuleTransfer(
      p, p.rules()[0], current, db, FmOptions());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsEmpty());
}

// --- RunScc against the plain fixpoint -----------------------------------

// Emptiness decided by a fresh LP over the rows, ignoring any mark.
bool FreshIsEmpty(const Polyhedron& p) {
  return p.known_empty() || Polyhedron::FromSystem(p.constraints()).IsEmpty();
}

// Containment decided row by row on fresh copies: no identical-rows
// shortcut and no marks.
bool FreshContains(const Polyhedron& outer, const Polyhedron& inner) {
  if (FreshIsEmpty(inner)) return true;
  if (FreshIsEmpty(outer)) return false;
  Polyhedron fresh = Polyhedron::FromSystem(inner.constraints());
  for (const Constraint& row : outer.constraints().rows()) {
    if (!fresh.Entails(row)) return false;
  }
  return true;
}

// The fixpoint RunScc computes, written plainly: every transfer and join
// recomputed in every sweep (ascending sweeps with widening, then one
// refinement pass), and stability decided by FreshContains.
Result<SccInferenceResult> ReferenceRunScc(
    const Program& program, const std::vector<PredId>& scc_preds,
    const ArgSizeDb& db, const InferenceOptions& options) {
  SccInferenceResult result;
  std::map<PredId, Polyhedron> current;
  for (const PredId& pred : scc_preds) {
    current.emplace(pred, Polyhedron::Empty(pred.arity));
  }
  std::vector<int> rules;
  for (const PredId& pred : scc_preds) {
    for (int r : program.RuleIndicesFor(pred)) rules.push_back(r);
  }
  std::sort(rules.begin(), rules.end());
  // One pass of every rule, joining into `into` the transfers under
  // `from` (the same map in an ascending sweep).
  auto sweep_rules = [&](const std::map<PredId, Polyhedron>& from,
                         std::map<PredId, Polyhedron>* into) -> Status {
    for (int r : rules) {
      const Rule& rule = program.rules()[r];
      Result<Polyhedron> transferred = ConstraintInference::RuleTransfer(
          program, rule, from, db, options.fm);
      if (!transferred.ok()) return transferred.status();
      Polyhedron& value = into->at(rule.head.pred_id());
      Result<Polyhedron> joined =
          Polyhedron::ConvexHull(value, *transferred, options.fm);
      if (!joined.ok()) return joined.status();
      value = std::move(joined).value();
    }
    return Status::Ok();
  };

  Status status = Status::Ok();
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    if (options.fm.governor != nullptr) {
      status = options.fm.governor->Charge("inference.sweep");
      if (!status.ok()) break;
    }
    ++result.stats.sweeps;
    std::map<PredId, Polyhedron> before = current;
    status = sweep_rules(current, &current);
    if (!status.ok()) break;
    if (std::all_of(scc_preds.begin(), scc_preds.end(),
                    [&](const PredId& pred) {
                      return FreshContains(before.at(pred), current.at(pred));
                    })) {
      result.stats.reached_fixpoint = true;
      break;
    }
    if (sweep + 1 >= options.widen_delay) {
      result.stats.widened = true;
      for (const PredId& pred : scc_preds) {
        current.at(pred) = before.at(pred).Widen(current.at(pred));
      }
    }
  }
  if (status.ok() && !result.stats.reached_fixpoint) {
    status = Status::ResourceExhausted(
        StrCat("constraint inference did not converge within ",
               options.max_sweeps, " sweeps"));
  }
  if (!status.ok()) {
    if (status.code() != StatusCode::kResourceExhausted) return status;
    result.resource_limited = true;
    result.trip_message = std::string(status.message());
    return result;
  }
  std::map<PredId, Polyhedron> refined;
  for (const PredId& pred : scc_preds) {
    refined.emplace(pred, Polyhedron::Empty(pred.arity));
  }
  if (sweep_rules(current, &refined).ok()) current = std::move(refined);
  for (const PredId& pred : scc_preds) {
    Polyhedron polyhedron = current.at(pred);
    polyhedron.Minimize();
    result.entries.emplace_back(pred, std::move(polyhedron));
  }
  return result;
}

// Runs the reference and RunScc on one SCC, each under a fresh governor
// with `limits`, and expects the same result and the same spend. Returns
// RunScc's result and sets *work to its spend.
SccInferenceResult ExpectSameFixpoint(const Program& program,
                                      const std::vector<PredId>& preds,
                                      const ArgSizeDb& db,
                                      const GovernorLimits& limits,
                                      const std::string& label,
                                      int64_t* work = nullptr) {
  InferenceOptions options;
  int64_t expected_work = 0;
  Result<SccInferenceResult> expected = Status::Internal("not run");
  {
    ResourceGovernor governor(limits);
    options.fm.governor = &governor;
    expected = ReferenceRunScc(program, preds, db, options);
    expected_work = governor.Spend().work;
  }
  ResourceGovernor governor(limits);
  options.fm.governor = &governor;
  Result<SccInferenceResult> actual =
      ConstraintInference::RunScc(program, preds, db, options);
  if (work != nullptr) *work = governor.Spend().work;
  EXPECT_EQ(governor.Spend().work, expected_work) << label;
  EXPECT_EQ(actual.ok(), expected.ok()) << label;
  if (!actual.ok() || !expected.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
        << label;
    return SccInferenceResult();
  }
  EXPECT_EQ(actual->resource_limited, expected->resource_limited) << label;
  EXPECT_EQ(actual->trip_message, expected->trip_message) << label;
  EXPECT_EQ(actual->stats.sweeps, expected->stats.sweeps) << label;
  EXPECT_EQ(actual->stats.widened, expected->stats.widened) << label;
  EXPECT_EQ(actual->stats.reached_fixpoint, expected->stats.reached_fixpoint)
      << label;
  EXPECT_EQ(actual->entries.size(), expected->entries.size()) << label;
  for (size_t i = 0;
       i < std::min(actual->entries.size(), expected->entries.size()); ++i) {
    const auto& [pred, polyhedron] = actual->entries[i];
    const auto& [want_pred, want] = expected->entries[i];
    EXPECT_TRUE(pred == want_pred) << label;
    EXPECT_EQ(polyhedron.num_vars(), want.num_vars()) << label;
    EXPECT_EQ(polyhedron.known_empty(), want.known_empty()) << label;
    EXPECT_TRUE(polyhedron.constraints().rows() == want.constraints().rows())
        << label << ": got\n"
        << polyhedron.ToString() << "want\n"
        << want.ToString();
  }
  return std::move(actual).value();
}

// Checks every SCC of `source`, filling the db in BuildPlan order as
// ConstraintInference::Run does.
void ExpectSameOnEveryScc(const std::string& source,
                          const std::string& label) {
  Result<Program> program = ParseProgram(source);
  ASSERT_TRUE(program.ok()) << label << ": " << program.status().ToString();
  ArgSizeDb db;
  for (const InferencePlanNode& node :
       ConstraintInference::BuildPlan(*program, db).nodes) {
    SccInferenceResult result = ExpectSameFixpoint(
        *program, node.preds, db, GovernorLimits(),
        label + " scc of " + program->PredName(node.preds.front()));
    if (result.resource_limited) continue;
    for (auto& [pred, polyhedron] : result.entries) {
      db.Set(pred, std::move(polyhedron));
    }
  }
}

int64_t Counter(const obs::MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(InferenceTest, RunSccMatchesThePlainFixpoint) {
  // The memo and the emptiness marks change how often a step is computed,
  // never a value: on every SCC of the corpus and of 300 generated
  // programs, RunScc returns the plain fixpoint's result and spends the
  // same governor work.
  obs::Metrics::Global().Reset();
  obs::Metrics::Global().Enable();
  for (const CorpusEntry& entry : Corpus()) {
    ExpectSameOnEveryScc(entry.source, entry.name);
  }
  gen::GenParams params;
  params.seed = 2026;
  params.count = 300;
  for (const gen::GeneratedRequest& request : gen::Generate(params).requests) {
    ExpectSameOnEveryScc(request.source, request.name);
  }
  obs::MetricsSnapshot snapshot = obs::Metrics::Global().Collect();
  obs::Metrics::Global().Disable();
  obs::Metrics::Global().Reset();
  if (!obs::kCompiledIn) return;
  // Repeats were served, and the LP split by caller adds up.
  EXPECT_GT(Counter(snapshot, "inference.transfer_hits"), 0);
  EXPECT_GT(Counter(snapshot, "inference.join_hits"), 0);
  EXPECT_EQ(Counter(snapshot, "simplex.solves.emptiness") +
                Counter(snapshot, "simplex.solves.prune") +
                Counter(snapshot, "simplex.solves.entailment") +
                Counter(snapshot, "simplex.solves.analyzer"),
            Counter(snapshot, "simplex.solves"));
}

TEST(InferenceTest, RunSccMatchesThePlainFixpointAtEveryBudget) {
  // Under a work budget a repeat is served only when recomputing it would
  // not trip; otherwise it is recomputed and trips where the plain sweep
  // does. Every budget up to each SCC's unbudgeted spend must give the
  // same trip message, spend and values.
  for (const char* name : {"append", "perm"}) {
    const CorpusEntry* entry = FindCorpusEntry(name);
    ASSERT_NE(entry, nullptr) << name;
    Result<Program> program = ParseProgram(entry->source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ArgSizeDb db;
    for (const InferencePlanNode& node :
         ConstraintInference::BuildPlan(*program, db).nodes) {
      const std::string label =
          StrCat(name, " scc of ", program->PredName(node.preds.front()));
      int64_t spend = 0;
      SccInferenceResult result = ExpectSameFixpoint(
          *program, node.preds, db, GovernorLimits(), label, &spend);
      ASSERT_GT(spend, 1) << label;
      int tripped = 0;
      for (int64_t budget = 1; budget <= spend; ++budget) {
        GovernorLimits limits;
        limits.work_budget = budget;
        tripped += ExpectSameFixpoint(*program, node.preds, db, limits,
                                      StrCat(label, " budget ", budget))
                       .resource_limited;
      }
      EXPECT_GT(tripped, 0) << label;
      for (auto& [pred, polyhedron] : result.entries) {
        db.Set(pred, std::move(polyhedron));
      }
    }
  }
}

}  // namespace
}  // namespace termilog
