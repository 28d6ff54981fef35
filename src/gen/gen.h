#ifndef TERMILOG_GEN_GEN_H_
#define TERMILOG_GEN_GEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "util/governor.h"
#include "util/status.h"

namespace termilog {
namespace gen {

/// Deterministic 64-bit generator (splitmix64). Unlike the <random>
/// distributions, every draw here is fully specified, so one (seed,
/// params) pair produces byte-identical programs on every platform and
/// toolchain — the seeding contract the stress/chaos harness depends on
/// (docs/generator.md).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform draw in [0, bound); bound >= 1. Lemire multiply-shift — a
  /// negligible, input-independent bias instead of a rejection loop, so
  /// the draw count per request is a constant.
  uint64_t NextBelow(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform draw in [lo, hi] (inclusive); lo <= hi.
  int NextInt(int lo, int hi) {
    return lo + static_cast<int>(
                    NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  bool Chance(int percent) {
    return static_cast<int>(NextBelow(100)) < percent;
  }

  /// Stream derivation: a child generator whose sequence depends only on
  /// (seed, stream), not on how many values the parent has consumed.
  /// Requests are generated from per-index streams so request K's text is
  /// a function of (seed, params, K) alone.
  static Rng Stream(uint64_t seed, uint64_t stream) {
    Rng mix(seed ^ (0xA24BAED4963EE407ULL * (stream + 1)));
    return Rng(mix.Next());
  }

 private:
  uint64_t state_;
};

/// What the generator promises the engine will answer for a request (the
/// analysis being deterministic, the promise is exact, not statistical):
///   kProved          every recursive edge strictly decreases a bound
///                    argument -> the analyzer proves termination
///   kNotProved       one SCC's cycle grows a bound argument (the program
///                    genuinely diverges) -> proved=false
///   kResourceLimit   a terminating-shaped program shipped with a tiny
///                    work budget -> the governor ladder degrades every
///                    recursive SCC to RESOURCE_LIMIT
enum class ExpectedVerdict { kProved, kNotProved, kResourceLimit };

const char* ExpectedVerdictName(ExpectedVerdict verdict);
bool ParseExpectedVerdict(std::string_view text, ExpectedVerdict* out);

/// Generator parameters. The defaults give small mixed programs; every
/// field is reachable from the CLI spec syntax "SEED:key=value,..."
/// (see ParseGenSpec and docs/generator.md).
struct GenParams {
  uint64_t seed = 1;
  /// Requests (= programs) to generate.               spec key: count
  int count = 100;
  /// Recursive SCCs per program, drawn per request.   keys: sccs / min_sccs
  int min_sccs = 1;
  int max_sccs = 3;
  /// Predicates per SCC.                              keys: preds / min_preds
  int min_scc_size = 1;
  int max_scc_size = 3;
  /// Per-predicate arity drawn from [1, max_arity].   key: arity
  int max_arity = 2;
  /// Max list cells peeled per recursive step and max output-term
  /// wrapping depth.                                  key: depth
  int term_depth = 2;
  /// Recursive rules per predicate.                   key: fanout
  int fanout = 2;
  /// Relative verdict-mix weights.                    key: mix=P/N/R
  int mix_proved = 70;
  int mix_not_proved = 25;
  int mix_resource_limit = 5;
  /// Chance (percent) that a request replays an earlier program verbatim
  /// (same predicate names, same source), so the content-addressed SCC
  /// cache sees repeats at scale.                     key: dup
  int dup_percent = 0;
  /// Work budget attached to kResourceLimit requests. key: budget
  int64_t resource_work_budget = 1;
  /// Request-name prefix ("PREFIX:s<seed>:r<index>"). key: prefix
  std::string name_prefix = "gen";
  /// Conditions-workload dimension (docs/conditions.md). 0 = off. K >= 1
  /// switches every request to kind "conditions": each SCC is a mutual-
  /// recursion cycle of exactly K predicates whose recursive rules peel a
  /// per-predicate measure argument and pass the remaining arguments
  /// through in rank order, a shape whose minimal terminating binding
  /// patterns are exactly computable at generation time — the request
  /// carries them as "expect_modes" for --conditions --check-expect. The
  /// mix's resource_limit weight folds into proved (a budget would
  /// perturb the declared mode sets).                 key: modes
  int modes_cycle = 0;
};

/// Declared minimal terminating modes: predicate display name ("p/2") ->
/// mode strings ("bf"). Mirrors condinf::ExpectedModes without the
/// dependency.
using ExpectModes =
    std::vector<std::pair<std::string, std::vector<std::string>>>;

struct GeneratedRequest {
  std::string name;
  /// Program text in the parser's Prolog subset, with a :- mode directive
  /// naming the entry query.
  std::string source;
  /// Entry query spec, e.g. "g7s0p0(b,f)".
  std::string query;
  ExpectedVerdict expect = ExpectedVerdict::kProved;
  /// Zeroed (unlimited) unless expect == kResourceLimit.
  GovernorLimits limits;
  /// Planned recursive-SCC sizes, entry SCC first. The engine reports the
  /// condensation callees-first, i.e. in reverse of this order.
  std::vector<int> scc_sizes;
  /// Request kind: "" = plain analysis; "conditions" = a termination-
  /// condition sweep over every predicate (modes workloads).
  std::string kind;
  /// Exact expected minimal-mode sets, conditions requests only.
  ExpectModes expect_modes;
};

struct GeneratedWorkload {
  GenParams params;
  std::vector<GeneratedRequest> requests;
};

/// Generates `params.count` requests. Deterministic: equal params yield a
/// byte-identical workload; request K depends only on (params, K).
GeneratedWorkload Generate(const GenParams& params);

/// Parses "SEED" or "SEED:key=value,key=value,..." (keys documented on
/// GenParams). Unknown keys and malformed values are errors.
Result<GenParams> ParseGenSpec(std::string_view spec);

/// Canonical spec string reproducing `params` (round-trips through
/// ParseGenSpec); recorded in manifest headers.
std::string GenSpecToString(const GenParams& params);

// --- JSONL manifest -----------------------------------------------------
//
// One header line {"gen_manifest":1,"seed":...,"spec":...,"count":...}
// followed by one object per request:
//   {"name":..,"query":..,"expect":..,"sccs":[..],
//    "limits":{"work_budget":..},"source":..}
// "source" may be replaced by "file" when programs live on disk.
// termilog_cli --batch consumes this format (docs/generator.md).

std::string RequestToManifestLine(const GeneratedRequest& request);
std::string WorkloadToManifestJsonl(const GeneratedWorkload& workload);

/// One parsed manifest request line (header lines are skipped).
struct ManifestEntry {
  std::string name;
  std::string file;    // empty when `source` is inline
  std::string source;  // empty when the program lives in `file`
  std::string query;   // empty: fall back to the file's mode directives
  std::string expect;  // empty: no declared expectation
  /// Request kind: "" or "analyze" = plain analysis, "conditions" = a
  /// termination-condition sweep. Any other value makes the line
  /// unreadable (`error` set naming the kind), so --batch and --serve
  /// answer it with the structured per-request error shape.
  std::string kind;
  /// Declared minimal-mode expectations for conditions requests
  /// ("expect_modes" object: {"p/2":["bf",..],..}), sorted by predicate.
  ExpectModes expect_modes;
  GovernorLimits limits;
  bool has_limits = false;
  /// 1-based manifest line this entry came from.
  size_t line_number = 0;
  /// True for a {"gen_manifest":...} header/provenance line (no request).
  bool header = false;
  /// Non-OK when the line was unreadable — truncated or garbage JSON, a
  /// non-object, an unknown expect verdict, a missing source/file. The
  /// message names the line number. One bad line degrades to one error
  /// result; it never aborts the rest of the batch.
  Status error = Status::Ok();
};

/// Parses a single manifest line (the serve-mode request framing).
/// Never fails hard: an unreadable line comes back with `error` set and
/// a synthesized "manifest:N" name so the caller can emit a per-request
/// error response.
ManifestEntry ParseManifestLine(std::string_view line, size_t line_number);

/// Parses a whole JSONL manifest. Blank lines and header lines are
/// skipped; every other line yields one entry, with `error` set on the
/// unreadable ones (see ParseManifestLine).
std::vector<ManifestEntry> ParseManifestJsonl(std::string_view text);

/// Expands a workload into engine requests (parsing every source).
/// Request options carry the per-request limits.
Result<std::vector<BatchRequest>> WorkloadToBatchRequests(
    const GeneratedWorkload& workload);

/// True when the engine's outcome for a request matches `expect`:
///   kProved         proved && !resource_limited
///   kNotProved      !proved && !resource_limited
///   kResourceLimit  resource_limited
bool OutcomeMatchesExpect(ExpectedVerdict expect, bool proved,
                          bool resource_limited);

// --- Latency summaries (the --connect load client) -----------------------

struct LatencySummary {
  int64_t count = 0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
};

/// Nearest-rank percentiles. Sorts a copy; empty input -> all zeros.
LatencySummary SummarizeLatencies(std::vector<int64_t> latencies_us);

}  // namespace gen
}  // namespace termilog

#endif  // TERMILOG_GEN_GEN_H_
