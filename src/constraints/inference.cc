#include "constraints/inference.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "graph/digraph.h"
#include "graph/scc.h"
#include "obs/obs.h"
#include "term/size.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {
namespace {

// Shifts a size polynomial over rule-local variable ids into the rule
// system's column space: logical variable v -> column var_base + v.
LinearExpr ShiftVars(const LinearExpr& expr, int var_base) {
  LinearExpr out(expr.constant());
  for (const auto& [var, coeff] : expr.coeffs()) {
    out.SetCoeff(var_base + var, coeff);
  }
  return out;
}

// A row is trivially implied by variable nonnegativity when it is a kGe row
// with nonnegative coefficients and constant; skipping such rows keeps the
// FM systems small.
bool TriviallyImplied(const Constraint& row) {
  if (row.rel != Relation::kGe) return false;
  if (row.constant.sign() < 0) return false;
  for (const Rational& c : row.coeffs) {
    if (c.sign() < 0) return false;
  }
  return true;
}

size_t MixHash(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2));
}

// A hash consistent with Polyhedron::Identical. Rows are normalized
// integers almost always, so machine-word values mix in directly.
size_t ValueHash(const Polyhedron& polyhedron) {
  auto value = [](const Rational& r) {
    int64_t small = 0;
    return r.GetInt64(&small) ? static_cast<size_t>(small) : r.Hash();
  };
  size_t h = MixHash(static_cast<size_t>(polyhedron.num_vars()),
                     polyhedron.known_empty() ? 1 : 0);
  for (const Constraint& row : polyhedron.constraints().rows()) {
    h = MixHash(h, static_cast<size_t>(row.rel));
    h = MixHash(h, value(row.constant));
    for (const Rational& c : row.coeffs) h = MixHash(h, value(c));
  }
  return h;
}

// The transfers and joins of one RunScc call, each computed at most once.
// Both are deterministic functions of their operands' rows (the program,
// the db and the FmOptions stay fixed for the call), so a repeat takes the
// stored result. A repeat is charged to the governor at "inference.memo"
// with the ticks the first computation charged, and only when recomputing
// could not have tripped: the governor is not exhausted, the work budget
// covers the ticks, and no limb limit is set (a limb limit is sampled every
// few ticks, and one lump charge would move the samples, and with them the
// site and spend a limb trip reports). Otherwise the step is recomputed,
// and trips exactly where the uncached sweep would. So values, spend.work
// and trip messages are those of the uncached fixpoint (docs/robustness.md).
class FixpointMemo {
 public:
  explicit FixpointMemo(const ResourceGovernor* governor)
      : governor_(governor) {}

  // RuleTransfer of program rule `r` under `current`. The key is the rule
  // and the SCC polyhedra its positive body literals read, in body order.
  Result<Polyhedron> Transfer(const Program& program, int r,
                              const std::map<PredId, Polyhedron>& current,
                              const ArgSizeDb& db, const FmOptions& fm) {
    TERMILOG_COUNTER("inference.transfers", 1);
    const Rule& rule = program.rules()[r];
    std::vector<const Polyhedron*> reads;
    for (const Literal& lit : rule.body) {
      if (!lit.positive) continue;
      auto it = current.find(lit.atom.pred_id());
      if (it != current.end()) reads.push_back(&it->second);
    }
    return Get(r, reads, "inference.transfer_hits", [&] {
      return ConstraintInference::RuleTransfer(program, rule, current, db,
                                               fm);
    });
  }

  // The join of a predicate's value `left` with a transfer. A join into
  // bottom is the transfer itself, with nothing to store.
  Result<Polyhedron> Join(const Polyhedron& left, const Polyhedron& right,
                          const FmOptions& fm) {
    if (left.IsEmpty()) return right;
    TERMILOG_COUNTER("inference.joins", 1);
    return Get(kJoin, {&left, &right}, "inference.join_hits",
               [&] { return Polyhedron::ConvexHull(left, right, fm); });
  }

 private:
  static constexpr int kJoin = -1;

  struct Entry {
    int step;  // the rule index of a transfer, kJoin for a join
    std::vector<Polyhedron> operands;
    Polyhedron result;
    int64_t ticks;
  };

  int64_t Work() const {
    return governor_ == nullptr ? 0 : governor_->Spend().work;
  }

  bool CanReplay(int64_t ticks) const {
    if (governor_ == nullptr) return true;
    if (governor_->exhausted()) return false;
    const GovernorLimits& limits = governor_->limits();
    if (limits.bigint_limb_limit > 0) return false;
    return limits.work_budget == 0 ||
           governor_->Spend().work + ticks <= limits.work_budget;
  }

  template <typename Compute>
  Result<Polyhedron> Get(int step, const std::vector<const Polyhedron*>& key,
                         [[maybe_unused]] const char* hit_counter,
                         Compute compute) {
    size_t hash = std::hash<int>()(step);
    for (const Polyhedron* operand : key) {
      hash = MixHash(hash, ValueHash(*operand));
    }
    auto [first, last] = entries_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      const Entry& entry = it->second;
      if (entry.step != step || !SameOperands(entry.operands, key)) continue;
      if (!CanReplay(entry.ticks)) return compute();
      if (governor_ != nullptr) {
        Status charged = governor_->Charge("inference.memo", entry.ticks);
        if (!charged.ok()) return charged;
      }
      TERMILOG_COUNTER(hit_counter, 1);
      return entry.result;
    }
    const int64_t work_before = Work();
    Result<Polyhedron> out = compute();
    if (out.ok()) {
      Entry entry{step, {}, *out, Work() - work_before};
      entry.operands.reserve(key.size());
      for (const Polyhedron* operand : key) entry.operands.push_back(*operand);
      entries_.emplace(hash, std::move(entry));
    }
    return out;
  }

  static bool SameOperands(const std::vector<Polyhedron>& stored,
                           const std::vector<const Polyhedron*>& key) {
    if (stored.size() != key.size()) return false;
    for (size_t i = 0; i < key.size(); ++i) {
      if (!stored[i].Identical(*key[i])) return false;
    }
    return true;
  }

  const ResourceGovernor* governor_;
  std::unordered_multimap<size_t, Entry> entries_;
};

}  // namespace

Result<Polyhedron> ConstraintInference::RuleTransfer(
    const Program& program, const Rule& rule,
    const std::map<PredId, Polyhedron>& current, const ArgSizeDb& db,
    const FmOptions& fm) {
  (void)program;  // reserved for diagnostics
  const int arity = static_cast<int>(rule.head.args.size());
  const int var_base = arity;
  const int width = arity + rule.num_vars();
  ConstraintSystem system(width);

  // Head argument size equations: x_i - size(t_i) = 0.
  for (int i = 0; i < arity; ++i) {
    LinearExpr expr = LinearExpr::Variable(i);
    expr -= ShiftVars(StructuralSize(rule.head.args[i]), var_base);
    system.AddExpr(expr, Relation::kEq);
  }
  // Logical variable sizes are nonnegative.
  for (int v = 0; v < rule.num_vars(); ++v) {
    system.AddNonNegativity(var_base + v);
  }
  // Body subgoal contributions.
  for (const Literal& lit : rule.body) {
    if (!lit.positive) continue;  // negative subgoals carry no size info
    PredId callee = lit.atom.pred_id();
    const Polyhedron* callee_poly = nullptr;
    auto it = current.find(callee);
    if (it != current.end()) {
      callee_poly = &it->second;
    } else if (db.Has(callee)) {
      // Trusted / lower-SCC knowledge.
    } else {
      // Unknown predicate: nonnegative orthant contributes nothing beyond
      // what variable nonnegativity already implies.
      continue;
    }
    Polyhedron stored = callee_poly ? *callee_poly : db.Get(callee);
    if (stored.IsEmpty()) {
      // No derivable fact can satisfy this subgoal (yet): the rule derives
      // nothing this sweep.
      return Polyhedron::Empty(arity);
    }
    std::vector<LinearExpr> images;
    images.reserve(lit.atom.args.size());
    for (const TermPtr& arg : lit.atom.args) {
      images.push_back(ShiftVars(StructuralSize(arg), var_base));
    }
    ConstraintSystem instantiated = stored.Instantiate(images, width);
    for (const Constraint& row : instantiated.rows()) {
      if (!TriviallyImplied(row)) system.Add(row);
    }
  }

  std::vector<int> keep(arity);
  for (int i = 0; i < arity; ++i) keep[i] = i;
  Result<ConstraintSystem> projected =
      FourierMotzkin::Project(system, keep, fm);
  if (!projected.ok()) return projected.status();
  Polyhedron out = Polyhedron::FromSystem(std::move(projected).value());
  out.Minimize();
  return out;
}

InferencePlan ConstraintInference::BuildPlan(const Program& program,
                                             const ArgSizeDb& db) {
  // Dependency graph over defined predicates.
  std::vector<PredId> preds;
  for (const PredId& pred : program.DefinedPredicates()) {
    preds.push_back(pred);
  }
  std::map<PredId, int> index;
  for (size_t i = 0; i < preds.size(); ++i) {
    index[preds[i]] = static_cast<int>(i);
  }
  Digraph graph(static_cast<int>(preds.size()));
  for (const Rule& rule : program.rules()) {
    int from = index.at(rule.head.pred_id());
    for (const Literal& lit : rule.body) {
      auto it = index.find(lit.atom.pred_id());
      if (it != index.end()) graph.AddEdge(from, it->second);
    }
  }

  InferencePlan plan;
  // Which plan node computes each predicate (user-supplied predicates are
  // computed by no node: dependencies on them resolve through the db).
  std::map<PredId, int> node_of;
  // Callees-first order (Tarjan emits reverse topological order).
  for (const std::vector<int>& component :
       StronglyConnectedComponents(graph)) {
    InferencePlanNode node;
    for (int member : component) {
      const PredId& pred = preds[member];
      if (!db.Has(pred)) node.preds.push_back(pred);
    }
    if (node.preds.empty()) continue;  // fully user-supplied
    const int node_index = static_cast<int>(plan.nodes.size());
    std::set<int> deps;
    for (const PredId& pred : node.preds) {
      for (int r : program.RuleIndicesFor(pred)) {
        for (const Literal& lit : program.rules()[r].body) {
          if (!lit.positive) continue;
          auto it = node_of.find(lit.atom.pred_id());
          if (it != node_of.end() && it->second != node_index) {
            deps.insert(it->second);
          }
        }
      }
    }
    for (const PredId& pred : node.preds) node_of[pred] = node_index;
    node.deps.assign(deps.begin(), deps.end());
    plan.nodes.push_back(std::move(node));
  }
  return plan;
}

Result<SccInferenceResult> ConstraintInference::RunScc(
    const Program& program, const std::vector<PredId>& scc_preds,
    const ArgSizeDb& db, const InferenceOptions& options) {
  TERMILOG_TRACE("inference.scc", "inference");
  SccInferenceResult result;
  std::map<PredId, Polyhedron> current;
  for (const PredId& pred : scc_preds) {
    current.emplace(pred, Polyhedron::Empty(pred.arity));
  }
  std::vector<int> rule_indices;
  for (const PredId& pred : scc_preds) {
    for (int r : program.RuleIndicesFor(pred)) rule_indices.push_back(r);
  }
  std::sort(rule_indices.begin(), rule_indices.end());
  FixpointMemo memo(options.fm.governor);

  Status scc_status = Status::Ok();
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    if (TERMILOG_FAILPOINT_HIT("inference.sweep")) {
      scc_status = Status::ResourceExhausted(
          FailpointRegistry::TripMessage("inference.sweep"));
      break;
    }
    if (options.fm.governor != nullptr) {
      scc_status = options.fm.governor->Charge("inference.sweep");
      if (!scc_status.ok()) break;
    }
    ++result.stats.sweeps;
    TERMILOG_COUNTER("inference.sweeps", 1);
    std::map<PredId, Polyhedron> before = current;
    for (int r : rule_indices) {
      PredId pred = program.rules()[r].head.pred_id();
      Result<Polyhedron> transferred =
          memo.Transfer(program, r, current, db, options.fm);
      if (!transferred.ok()) {
        scc_status = transferred.status();
        break;
      }
      Result<Polyhedron> joined =
          memo.Join(current.at(pred), *transferred, options.fm);
      if (!joined.ok()) {
        scc_status = joined.status();
        break;
      }
      current.at(pred) = std::move(joined).value();
    }
    if (!scc_status.ok()) break;
    bool stable = true;
    for (const PredId& pred : scc_preds) {
      if (!before.at(pred).Contains(current.at(pred))) {
        stable = false;
        break;
      }
    }
    if (stable) {
      result.stats.reached_fixpoint = true;
      break;
    }
    if (sweep + 1 >= options.widen_delay) {
      TERMILOG_COUNTER("inference.widenings", 1);
      result.stats.widened = true;
      for (const PredId& pred : scc_preds) {
        current.at(pred) = before.at(pred).Widen(current.at(pred));
      }
    }
  }
  if (scc_status.ok() && !result.stats.reached_fixpoint) {
    scc_status = Status::ResourceExhausted(
        StrCat("constraint inference did not converge within ",
               options.max_sweeps, " sweeps"));
  }
  if (!scc_status.ok()) {
    // Resource exhaustion degrades per SCC: the predicates are left out of
    // the db (the unconstrained top approximation, sound downstream).
    // Anything else is a real error.
    if (scc_status.code() != StatusCode::kResourceExhausted) {
      return scc_status;
    }
    result.resource_limited = true;
    result.trip_message = std::string(scc_status.message());
    return result;
  }
  // One descending refinement pass: lfp <= F(stable) <= stable, and
  // F(stable) recovers facts (like argument nonnegativity bounds) that
  // widening discarded.
  {
    std::map<PredId, Polyhedron> refined;
    for (const PredId& pred : scc_preds) {
      refined.emplace(pred, Polyhedron::Empty(pred.arity));
    }
    bool refine_ok = true;
    for (int r : rule_indices) {
      PredId pred = program.rules()[r].head.pred_id();
      Result<Polyhedron> transferred =
          memo.Transfer(program, r, current, db, options.fm);
      if (!transferred.ok()) {
        refine_ok = false;
        break;
      }
      Result<Polyhedron> joined =
          memo.Join(refined.at(pred), *transferred, options.fm);
      if (!joined.ok()) {
        refine_ok = false;
        break;
      }
      refined.at(pred) = std::move(joined).value();
    }
    if (refine_ok) current = std::move(refined);
  }
  for (const PredId& pred : scc_preds) {
    Polyhedron polyhedron = current.at(pred);
    polyhedron.Minimize();
    result.entries.emplace_back(pred, std::move(polyhedron));
  }
  return result;
}

Status ConstraintInference::Run(const Program& program, ArgSizeDb* db,
                                const InferenceOptions& options,
                                std::map<PredId, InferenceStats>* stats,
                                std::vector<std::string>* warnings) {
  TERMILOG_FAILPOINT("inference.run");
  TERMILOG_TRACE("inference.run", "inference");
  // Serial in-order execution of the plan; the batch engine schedules the
  // same nodes across its worker pool instead (src/engine/engine.cc).
  InferencePlan plan = BuildPlan(program, *db);
  for (const InferencePlanNode& node : plan.nodes) {
    Result<SccInferenceResult> scc = RunScc(program, node.preds, *db, options);
    if (!scc.ok()) return scc.status();
    if (scc->resource_limited) {
      if (warnings != nullptr) {
        warnings->push_back(
            StrCat("inference skipped for SCC of ",
                   program.PredName(node.preds.front()),
                   " (left unconstrained): ", scc->trip_message));
      }
    } else {
      for (auto& [pred, polyhedron] : scc->entries) {
        db->Set(pred, std::move(polyhedron));
      }
    }
    if (stats != nullptr) {
      stats->emplace(node.preds.front(), scc->stats);
    }
  }
  return Status::Ok();
}

}  // namespace termilog
