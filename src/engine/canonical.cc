#include "engine/canonical.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace termilog {
namespace {

// Rule-local variables render as V0, V1, ...: rule variable indices are
// deterministic for a given source text, so naming by index makes the
// rendering independent of the names the author chose while staying a
// pure function of the parsed rule.
constexpr VarNamer kCanonicalVars{nullptr, "V"};

// A key text is a few hundred bytes to a few KiB; one reservation covers
// most keys, and the cache stores its own copy of the text.
constexpr size_t kKeyReserve = 1024;

// Appends the SCC's rules in program order, "  <rule>\n" each.
void AppendSccRules(const Program& program, const std::set<PredId>& scc_set,
                    std::string* out) {
  *out += "rules:\n";
  for (const Rule& rule : program.rules()) {
    if (scc_set.count(rule.head.pred_id()) == 0) continue;
    *out += "  ";
    rule.AppendTo(out, program.symbols(), kCanonicalVars);
    out->push_back('\n');
  }
}

// Appends a callee polyhedron as stored, over a1..an (Polyhedron::AppendTo:
// no emptiness is decided, so no LP runs and the shared db is only read).
void AppendPolyhedron(const Polyhedron& polyhedron, std::string* out) {
  polyhedron.AppendTo(out, &ArgSizeDb::ArgNamer());
}

// The stored polyhedron of `pred` in `db`, or null; read in place, with no
// copy.
const Polyhedron* FindPolyhedron(const ArgSizeDb& db, const PredId& pred) {
  auto it = db.entries().find(pred);
  return it == db.entries().end() ? nullptr : &it->second;
}

void AppendMode(const std::map<PredId, Adornment>& modes, const PredId& pred,
                std::string* out) {
  auto mode = modes.find(pred);
  if (mode == modes.end()) {
    out->push_back('-');
  } else {
    AppendAdornment(mode->second, out);
  }
}

}  // namespace

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<PredId> CanonicalSccOrder(const Program& program,
                                      std::vector<PredId> preds) {
  std::sort(preds.begin(), preds.end(),
            [&program](const PredId& a, const PredId& b) {
              const std::string& na = program.symbols().Name(a.symbol);
              const std::string& nb = program.symbols().Name(b.symbol);
              if (na != nb) return na < nb;
              return a.arity < b.arity;
            });
  return preds;
}

std::vector<PredId> InferenceCalleePreds(const Program& program,
                                         const std::vector<PredId>& scc_preds) {
  std::set<PredId> scc_set(scc_preds.begin(), scc_preds.end());
  std::set<PredId> callees;
  for (const PredId& pred : scc_preds) {
    for (int r : program.RuleIndicesFor(pred)) {
      for (const Literal& lit : program.rules()[r].body) {
        if (!lit.positive) continue;  // negative subgoals carry no size info
        PredId callee = lit.atom.pred_id();
        if (scc_set.count(callee) == 0) callees.insert(callee);
      }
    }
  }
  return CanonicalSccOrder(program, {callees.begin(), callees.end()});
}

SccCacheKey CanonicalInferenceKey(const Program& program,
                                  const std::vector<PredId>& scc_preds,
                                  const ArgSizeDb& db,
                                  const AnalysisOptions& options) {
  std::string text;
  text.reserve(kKeyReserve);
  std::set<PredId> scc_set(scc_preds.begin(), scc_preds.end());

  // The SCC's predicates, in the canonical order entries are emitted in.
  // No adornments here: the fixpoint describes derivable facts, which do
  // not depend on the query direction (CanonicalInferenceKey doc comment).
  text += "inference-scc:";
  for (const PredId& pred : scc_preds) {
    text.push_back(' ');
    program.AppendPredName(pred, &text);
  }
  text.push_back('\n');

  // The SCC's rules in program order (RunScc iterates rule indices in
  // ascending order, and hull/widen results depend on iteration order),
  // with canonical variable names.
  AppendSccRules(program, scc_set, &text);

  // The polyhedra RuleTransfer instantiates for out-of-SCC positive
  // subgoals. A predicate with no db entry renders as "-" (RuleTransfer
  // then uses the nonnegative orthant): "no knowledge" is part of the
  // identity, distinct from an explicitly supplied orthant.
  text += "callees:\n";
  for (const PredId& pred : InferenceCalleePreds(program, scc_preds)) {
    text += "  ";
    program.AppendPredName(pred, &text);
    text.push_back('\n');
    if (const Polyhedron* stored = FindPolyhedron(db, pred)) {
      AppendPolyhedron(*stored, &text);
    } else {
      text += "-\n";
    }
  }

  // Every option the fixpoint reads: the inference knobs, its FM knobs,
  // and the governor limits (a budget can change a result — e.g. stop LP
  // pruning early — without tripping).
  const InferenceOptions& inference = options.inference;
  const GovernorLimits& limits = options.limits;
  StrAppend(&text, "inference-options: widen_delay=", inference.widen_delay,
            " max_sweeps=", inference.max_sweeps,
            " fm_row_limit=", inference.fm.row_limit,
            " lp_prune=", inference.fm.lp_prune,
            " lp_prune_threshold=", inference.fm.lp_prune_threshold,
            " deadline_ms=", limits.deadline_ms,
            " work_budget=", limits.work_budget,
            " limb_limit=", limits.bigint_limb_limit, "\n");

  SccCacheKey key;
  key.digest = Fnv1a64(text);
  key.text = std::move(text);
  return key;
}

SccCacheKey CanonicalSccKey(const Program& program,
                            const std::vector<PredId>& scc_preds,
                            const std::map<PredId, Adornment>& modes,
                            const ArgSizeDb& db,
                            const AnalysisOptions& options) {
  std::string text;
  text.reserve(kKeyReserve);
  std::set<PredId> scc_set(scc_preds.begin(), scc_preds.end());

  // The SCC's predicates, in the canonical order the analysis will use
  // (this fixes the theta column layout).
  text += "scc:";
  for (const PredId& pred : scc_preds) {
    text.push_back(' ');
    program.AppendPredName(pred, &text);
    text.push_back(':');
    AppendMode(modes, pred, &text);
  }
  text.push_back('\n');

  // The SCC's rules, in program order (RuleSystemBuilder::BuildForScc walks
  // rules in program order, so the order is part of the task's identity),
  // with canonical variable names.
  AppendSccRules(program, scc_set, &text);

  // Adornment and inter-argument constraints of every predicate the rules
  // mention (callees contribute their imported feasibility constraints to
  // Eq. 1; predicates without a db entry render as the nonnegative orthant,
  // so "no knowledge" is part of the identity too). Sorted by name for
  // program-order independence.
  std::set<PredId> mentioned;
  for (const Rule& rule : program.rules()) {
    if (scc_set.count(rule.head.pred_id()) == 0) continue;
    mentioned.insert(rule.head.pred_id());
    for (const Literal& lit : rule.body) mentioned.insert(lit.atom.pred_id());
  }
  text += "callees:\n";
  for (const PredId& pred :
       CanonicalSccOrder(program, {mentioned.begin(), mentioned.end()})) {
    text += "  ";
    program.AppendPredName(pred, &text);
    text.push_back(':');
    AppendMode(modes, pred, &text);
    text.push_back('\n');
    if (const Polyhedron* stored = FindPolyhedron(db, pred)) {
      AppendPolyhedron(*stored, &text);
    } else {
      AppendPolyhedron(Polyhedron::NonNegativeOrthant(pred.arity), &text);
    }
  }

  // Every AnalysisOptions field the per-SCC analysis reads. Governor limits
  // are included because a partially exhausted budget can change a result
  // without tripping (e.g. LP pruning stops early, leaving more rows).
  const GovernorLimits& limits = options.limits;
  StrAppend(&text, "options: negdeltas=", options.allow_negative_deltas,
            " validate=", options.validate_certificates,
            " fm_row_limit=", options.fm.row_limit,
            " lp_prune=", options.fm.lp_prune,
            " lp_prune_threshold=", options.fm.lp_prune_threshold,
            " deadline_ms=", limits.deadline_ms,
            " work_budget=", limits.work_budget,
            " limb_limit=", limits.bigint_limb_limit, "\n");

  SccCacheKey key;
  key.digest = Fnv1a64(text);
  key.text = std::move(text);
  return key;
}

}  // namespace termilog
