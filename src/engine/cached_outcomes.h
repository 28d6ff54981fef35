#ifndef TERMILOG_ENGINE_CACHED_OUTCOMES_H_
#define TERMILOG_ENGINE_CACHED_OUTCOMES_H_

#include <string>
#include <vector>

#include "constraints/arg_size_db.h"
#include "constraints/inference.h"
#include "core/analyzer.h"
#include "engine/content_cache.h"
#include "fm/polyhedron.h"
#include "program/ast.h"
#include "rational/rational.h"
#include "util/status.h"

namespace termilog {

// The two outcome types the engine memoizes per SCC in a ContentCache and
// persists in the store (docs/engine.md, docs/persistence.md). Both are
// program-independent: predicates are stored by (name, arity) instead of
// PredId, because symbol ids are an artifact of interning order and differ
// between programs that contain the same SCC verbatim.

// --- SCC termination outcomes (keyed by CanonicalSccKey) -----------------

/// A program-independent SccReport. RehydrateSccReport maps it back onto
/// the requesting program's PredIds.
struct CachedSccOutcome {
  struct NamedTheta {
    std::string name;
    int arity = 0;
    std::vector<Rational> coeffs;
  };
  struct NamedDelta {
    std::string from_name;
    int from_arity = 0;
    std::string to_name;
    int to_arity = 0;
    Rational value;
  };

  SccStatus status = SccStatus::kNotProved;
  bool used_negative_deltas = false;
  std::string reduced_constraints;
  std::vector<std::string> notes;
  std::vector<NamedTheta> theta;
  std::vector<NamedDelta> delta;
};

template <>
struct CacheTraits<CachedSccOutcome> {
  /// A kResourceLimit verdict says the budget ran out, not what the SCC's
  /// answer is.
  static bool Retainable(const CachedSccOutcome& outcome) {
    return outcome.status != SccStatus::kResourceLimit;
  }
  static constexpr CacheCounterNames kCounters = {
      "cache.lookups",          "cache.hits",
      "cache.misses",           "cache.single_flight_waits",
      "cache.persisted_loaded", "cache.persisted_hits"};
  static constexpr const char* kLabel = "cache";
};

/// Converts a freshly computed SccReport into cacheable form.
CachedSccOutcome DehydrateSccReport(const SccReport& report,
                                    const Program& program);

/// Reconstructs an SccReport for `program` from a cached outcome.
/// `scc_preds` (canonical order) supplies the report's predicate list;
/// every name in the outcome must resolve in `program`'s symbol table
/// (guaranteed when the outcome was keyed on the SCC's rules, which mention
/// exactly those names) — a failed resolution is a checked failure.
SccReport RehydrateSccReport(const CachedSccOutcome& outcome,
                             const Program& program,
                             std::vector<PredId> scc_preds);

// --- inter-argument inference outcomes (keyed by CanonicalInferenceKey) --

/// A program-independent SccInferenceResult. Each polyhedron is the exact
/// minimized value the fixpoint produced (rows verbatim, hard-bottom flag
/// preserved), so applying a cached outcome is byte-for-byte
/// indistinguishable from recomputing it.
struct CachedInferenceOutcome {
  struct Entry {
    std::string name;
    int arity = 0;
    Polyhedron polyhedron{0};
  };

  /// A budget trip (non-convergence, FM blowup, governor limit). The
  /// warning line shown to the user is composed by the *caller* from
  /// `trip_message` and its own node's first predicate, so single-flight
  /// waiters never inherit another program's predicate choice.
  bool resource_limited = false;
  std::string trip_message;
  /// Hard (non-budget) failure of the fixpoint. Carried in the outcome so
  /// a single-flight waiter of a failing computation fails its request
  /// with the same status as the computing one — keeping batch output
  /// independent of which worker reached the key first.
  Status error;
  std::vector<Entry> entries;
};

template <>
struct CacheTraits<CachedInferenceOutcome> {
  /// A starved fixpoint describes the budget, not the SCC; an errored one
  /// describes a failure, not a value.
  static bool Retainable(const CachedInferenceOutcome& outcome) {
    return !outcome.resource_limited && outcome.error.ok();
  }
  static constexpr CacheCounterNames kCounters = {
      "inference_cache.lookups",
      "inference_cache.hits",
      "inference_cache.misses",
      "inference_cache.single_flight_waits",
      "inference_cache.persisted_loaded",
      "inference_cache.persisted_hits"};
  static constexpr const char* kLabel = "inference cache";
};

/// Converts a freshly computed per-SCC inference result into cacheable
/// form.
CachedInferenceOutcome DehydrateInferenceResult(
    const SccInferenceResult& result, const Program& program);

/// Applies a cached outcome to `db`, resolving names against `program`'s
/// symbol table. Every name must resolve (guaranteed when the outcome was
/// keyed on the SCC's rules, which mention exactly those names) — a failed
/// resolution is a checked failure. No-op for resource-limited outcomes
/// (the predicates stay unconstrained, exactly as the serial path leaves
/// them).
void ApplyInferenceOutcome(const CachedInferenceOutcome& outcome,
                           const Program& program, ArgSizeDb* db);

}  // namespace termilog

#endif  // TERMILOG_ENGINE_CACHED_OUTCOMES_H_
