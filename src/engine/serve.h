#ifndef TERMILOG_ENGINE_SERVE_H_
#define TERMILOG_ENGINE_SERVE_H_

#include <cstddef>
#include <functional>
#include <string>

#include "core/analyzer.h"
#include "engine/engine.h"
#include "gen/gen.h"

namespace termilog {

/// Options for serve mode (docs/serve.md, docs/engine.md,
/// docs/persistence.md), shared by every NetServer connection: the socket
/// listeners of --listen and the stdio peer of --serve FIFO|-. The
/// protocol reuses the --batch JSONL framing: one manifest-entry object
/// per input line ("source" or "file", plus optional "name"/"query"/
/// "limits"/"kind"), one report JSON line per request on the output, in
/// that connection's request order. "kind":"conditions" answers with a
/// termination-condition sweep report (docs/conditions.md) instead of a
/// single-mode analysis; an unknown kind answers with the structured
/// per-request error shape.
struct ServeOptions {
  /// Base AnalysisOptions for every request; a request's own "limits"
  /// object overrides `base.limits`, so `--deadline-ms` supplies the
  /// per-request deadline default that the ResourceGovernor enforces.
  AnalysisOptions base;
  /// Admitted requests allowed to be unanswered at once (waiting for a
  /// worker or being analyzed) before the server sheds. When the waiting
  /// room is full, a new request is answered immediately with a
  /// deterministic RESOURCE_EXHAUSTED error carrying a retry-after note —
  /// bounded memory and bounded latency instead of an unbounded queue
  /// that falls over (docs/serve.md, Overload).
  int queue_limit = 64;
  /// Max bytes of one request line. A connection never buffers more than
  /// this per line: an over-long line is answered with the structured
  /// per-request error shape (naming the line number and the cap) and its
  /// remaining bytes are discarded up to the newline, so an adversarial or
  /// broken client cannot grow server memory with one unbounded line.
  size_t max_line_bytes = 1 << 20;
};

/// How ServeRequest answered a request: net counters, --batch exit codes.
enum class ServeAnswer {
  kReport,             // a plain request, analyzed
  kConditionsReport,   // a "kind":"conditions" sweep, completed
  kConditionsLimited,  // the same, with a budget tripped in some probe
  kError,              // the structured per-request error shape
};

/// Answers one admitted manifest entry through `engine` without waiting
/// for its analysis. Unreadable entries (ParseManifestLine `error` set),
/// unloadable programs and bad queries get the structured error shape;
/// plain requests go through BatchEngine::Submit, "conditions" requests
/// through condinf::SubmitConditionsSweep, sharing the engine and its
/// caches. `emit(line, answer)` runs exactly once with the response line
/// (no trailing newline): on the calling thread for an error, on an
/// engine worker otherwise. Like any engine callback it must not block on
/// the engine. The response bytes are what --batch prints for the entry.
void ServeRequest(BatchEngine& engine, gen::ManifestEntry entry,
                  const AnalysisOptions& base,
                  std::function<void(std::string line, ServeAnswer answer)>
                      emit);

/// The structured per-request error line ({"name":..,"ok":false,
/// "error":..}) shared by every transport.
std::string ServeErrorLine(const std::string& name, const Status& status);

/// The deterministic overload response for a full waiting room: same
/// bytes for every shed request (clients can match on it), carrying a
/// retry-after note. `queue_limit` names the configured bound.
std::string ServeShedLine(const std::string& name, int queue_limit);

/// The error status for a request line over `max_line_bytes`, naming the
/// 1-based line number and the cap.
Status OverlongLineError(size_t line_number, size_t max_line_bytes);

}  // namespace termilog

#endif  // TERMILOG_ENGINE_SERVE_H_
