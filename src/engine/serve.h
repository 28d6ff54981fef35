#ifndef TERMILOG_ENGINE_SERVE_H_
#define TERMILOG_ENGINE_SERVE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "condinf/condinf.h"
#include "core/analyzer.h"
#include "engine/engine.h"
#include "gen/gen.h"

namespace termilog {

/// Options for serve mode (docs/serve.md), shared by every NetServer
/// connection: the socket listeners of --listen and the stdio peer of
/// --serve FIFO|-. The protocol is the --batch JSONL framing: one
/// manifest entry per input line, one response line per request, in that
/// connection's request order.
struct ServeOptions {
  /// Base AnalysisOptions for every request; a request's own "limits"
  /// object overrides `base.limits`, so `--deadline-ms` supplies the
  /// per-request deadline default that the ResourceGovernor enforces.
  AnalysisOptions base;
  /// Admitted requests allowed to be unanswered at once (waiting for a
  /// worker or being analyzed); past it a new request is shed at once with
  /// a deterministic RESOURCE_EXHAUSTED line (docs/serve.md, Overload).
  int queue_limit = 64;
  /// Max bytes of one request line: a longer line is answered with the
  /// structured error shape and discarded up to its newline, so one line
  /// cannot grow server memory without bound.
  size_t max_line_bytes = 1 << 20;
};

/// How ServeRequest answered a request (NetServer's counters).
enum class ServeAnswer {
  kReport,            // a plain request, analyzed
  kConditionsReport,  // a "kind":"conditions" sweep, completed
  kError,             // the structured per-request error shape
};

// The request planner, shared by ServeRequest and the CLI's --batch and
// --conditions: an unreadable entry or program answers with
// EntryErrorLine, a "conditions" entry runs PlanSweep, and any other
// entry runs one PlanRequest per EntryQueries query.

/// Loads and parses the entry's program (inline "source", else "file");
/// an unreadable entry returns its `error`.
Result<Program> LoadProgram(const gen::ManifestEntry& entry);

/// The query text of a `:- mode` directive, e.g. "app(b,f,f)".
std::string ModeQueryText(const Program& program, const ModeDecl& decl);

/// A plain entry's queries: its "query"; else one per `:- mode`
/// directive, in directive order; else an error.
Result<std::vector<std::string>> EntryQueries(const gen::ManifestEntry& entry,
                                              const Program& program);

/// The engine request `name` for one query of the entry, under `base`
/// with the entry's "limits"; fails when `query` names no predicate.
Result<BatchRequest> PlanRequest(const gen::ManifestEntry& entry,
                                 std::string name, Program program,
                                 const std::string& query,
                                 const AnalysisOptions& base);

/// The sweep of a "conditions" entry, under `base` with its "limits".
condinf::ConditionsSweep PlanSweep(const gen::ManifestEntry& entry,
                                   Program program,
                                   const AnalysisOptions& base);

/// The error line for `entry`: the conditions report shape for a
/// "conditions" entry, ServeErrorLine's shape otherwise.
std::string EntryErrorLine(const gen::ManifestEntry& entry,
                           const Status& status);

/// Answers one admitted manifest entry through `engine`, planned as
/// above, without waiting for its analysis. Serve is one line in, one
/// line out: an entry with several mode directives and no "query" answers
/// for the first. `emit(line, answer)` runs exactly once with the
/// response line (no trailing newline): on the calling thread for an
/// error, on an engine worker otherwise. Like any engine callback it must
/// not block on the engine.
void ServeRequest(BatchEngine& engine, gen::ManifestEntry entry,
                  const AnalysisOptions& base,
                  std::function<void(std::string line, ServeAnswer answer)>
                      emit);

/// The structured per-request error line ({"name":..,"ok":false,
/// "error":..}) shared by every transport.
std::string ServeErrorLine(const std::string& name, const Status& status);

/// The deterministic overload response for a full waiting room: the same
/// bytes for every shed request, so clients can match on it, with an
/// advisory retry-after note naming `queue_limit`.
std::string ServeShedLine(const std::string& name, int queue_limit);

/// The error status for a request line over `max_line_bytes`, naming the
/// 1-based line number and the cap.
Status OverlongLineError(size_t line_number, size_t max_line_bytes);

}  // namespace termilog

#endif  // TERMILOG_ENGINE_SERVE_H_
