#ifndef TERMILOG_ENGINE_CANONICAL_H_
#define TERMILOG_ENGINE_CANONICAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "constraints/arg_size_db.h"
#include "core/analyzer.h"
#include "program/ast.h"

namespace termilog {

/// Content-addressed identity of one SCC analysis task. `text` is a full
/// canonical rendering of every input the per-SCC analysis reads — the SCC
/// rules (variables renamed canonically), the adornments of every predicate
/// they mention, the inter-argument constraints of every callee, and the
/// result-affecting AnalysisOptions — so two tasks with equal `text` are
/// guaranteed to produce identical reports. The cache keys on the full
/// text (true content addressing, no collision risk); `digest` is a 64-bit
/// FNV-1a of the text for logs and stats.
struct SccCacheKey {
  std::string text;
  uint64_t digest = 0;
};

/// Sorts SCC predicates into canonical (name, arity) order. The engine
/// analyzes every SCC in this order so that the theta column layout — and
/// therefore the certificate and the reduced-constraint rendering — is a
/// function of the SCC's content, not of the order in which the host
/// program happened to intern predicate symbols.
std::vector<PredId> CanonicalSccOrder(const Program& program,
                                      std::vector<PredId> preds);

/// Derives the cache key for analyzing the SCC `scc_preds` (already in
/// canonical order) of `program` under `modes`, the callee constraint store
/// `db`, and `options`. Callee polyhedra are read in place and rendered as
/// stored (Polyhedron::AppendTo): building a key decides no emptiness, so it
/// runs no LP and only reads `db`, which other workers may read at once.
SccCacheKey CanonicalSccKey(const Program& program,
                            const std::vector<PredId>& scc_preds,
                            const std::map<PredId, Adornment>& modes,
                            const ArgSizeDb& db,
                            const AnalysisOptions& options);

/// The callee predicates of an inference SCC: every predicate mentioned in
/// a positive body literal of the SCC's rules that is not itself a member
/// of the SCC, in canonical (name, arity) order. These are exactly the
/// predicates whose polyhedra RuleTransfer instantiates when iterating the
/// SCC, so their values (plus the rules) determine the fixpoint. Shared by
/// CanonicalInferenceKey and the engine's callee-snapshot step so the two
/// can never disagree about which polyhedra are inputs.
std::vector<PredId> InferenceCalleePreds(const Program& program,
                                         const std::vector<PredId>& scc_preds);

/// Derives the cache key for the [VG90] inference fixpoint of the SCC
/// `scc_preds` (already in canonical order) given the callee constraint
/// store `db` and `options`, rendering callee polyhedra as CanonicalSccKey
/// does. Adornments are deliberately absent: inference reads no modes
/// (argument sizes are a property of the derivable facts, not of the query
/// direction), and adornment-conflict cloning renames predicates, so clones
/// already differ in the rules section.
SccCacheKey CanonicalInferenceKey(const Program& program,
                                  const std::vector<PredId>& scc_preds,
                                  const ArgSizeDb& db,
                                  const AnalysisOptions& options);

/// 64-bit FNV-1a, exposed for tests.
uint64_t Fnv1a64(const std::string& text);

}  // namespace termilog

#endif  // TERMILOG_ENGINE_CANONICAL_H_
