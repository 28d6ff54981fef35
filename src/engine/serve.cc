#include "engine/serve.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "condinf/condinf.h"
#include "engine/report_json.h"
#include "program/parser.h"
#include "util/string_util.h"

namespace termilog {
namespace {

// Loads and parses the entry's program (inline "source" or "file").
Result<Program> LoadProgram(const gen::ManifestEntry& entry) {
  std::string source = entry.source;
  if (source.empty()) {
    std::ifstream in(entry.file);
    if (!in) return Status::InvalidArgument("cannot open program file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }
  return ParseProgram(source);
}

// Expands one admitted manifest entry into an engine request. Serve is a
// one-line-in / one-line-out protocol, so a file with several mode
// directives analyzes the first one; name a "query" to pick another.
Result<BatchRequest> BuildRequest(const gen::ManifestEntry& entry,
                                  const AnalysisOptions& base,
                                  std::string* query_text) {
  AnalysisOptions options = base;
  if (entry.has_limits) options.limits = entry.limits;
  Result<Program> parsed = LoadProgram(entry);
  if (!parsed.ok()) return parsed.status();
  std::string query = entry.query;
  if (query.empty()) {
    if (parsed->mode_decls().empty()) {
      return Status::InvalidArgument(
          "no \"query\" given and no :- mode(...) directive in the program");
    }
    const ModeDecl& decl = parsed->mode_decls().front();
    query = parsed->symbols().Name(decl.pred.symbol) + "(";
    for (size_t i = 0; i < decl.adornment.size(); ++i) {
      if (i > 0) query += ",";
      query += decl.adornment[i] == Mode::kBound ? "b" : "f";
    }
    query += ")";
  }
  Result<std::pair<PredId, Adornment>> parsed_query =
      ParseQuerySpec(*parsed, query);
  if (!parsed_query.ok()) return parsed_query.status();
  *query_text = query;
  BatchRequest request;
  request.name = entry.name;
  request.program = std::move(*parsed);
  request.query = parsed_query->first;
  request.adornment = parsed_query->second;
  request.options = options;
  return request;
}

}  // namespace

std::string ServeErrorLine(const std::string& name, const Status& status) {
  return ReportToJsonLine(name, "", status, TerminationReport());
}

std::string ServeShedLine(const std::string& name, int queue_limit) {
  // The shed response is deterministic — same bytes for every shed
  // request — so clients can match on it; the retry-after note is advice,
  // not a wall-clock promise.
  return ServeErrorLine(
      name, Status::ResourceExhausted(StrCat(
                "server overloaded: waiting room full (queue_limit=",
                queue_limit, "); request shed, retry after the backlog "
                "drains")));
}

Status OverlongLineError(size_t line_number, size_t max_line_bytes) {
  return Status::InvalidArgument(
      StrCat("request line ", line_number, " exceeds the ", max_line_bytes,
             "-byte line cap; line discarded"));
}

void ServeRequest(BatchEngine& engine, gen::ManifestEntry entry,
                  const AnalysisOptions& base,
                  std::function<void(std::string line, ServeAnswer answer)>
                      emit) {
  if (!entry.error.ok()) {
    emit(ServeErrorLine(entry.name, entry.error), ServeAnswer::kError);
    return;
  }
  if (entry.kind == "conditions") {
    // A conditions request sweeps the whole program's mode lattices
    // (docs/conditions.md), sharing the engine — and the SCC cache every
    // other request warms — with the plain requests.
    Result<Program> program = LoadProgram(entry);
    if (!program.ok()) {
      condinf::ConditionsReport error_report;
      error_report.name = entry.name;
      error_report.status = program.status();
      emit(condinf::ConditionsReportToJsonLine(error_report),
           ServeAnswer::kError);
      return;
    }
    condinf::ConditionsOptions conditions_options;
    conditions_options.analysis = base;
    if (entry.has_limits) conditions_options.analysis.limits = entry.limits;
    condinf::SubmitConditionsSweep(
        engine,
        condinf::ConditionsSweep(entry.name, std::move(*program),
                                 conditions_options),
        [emit = std::move(emit)](condinf::ConditionsReport report) {
          emit(condinf::ConditionsReportToJsonLine(report),
               report.resource_limited ? ServeAnswer::kConditionsLimited
                                       : ServeAnswer::kConditionsReport);
        });
    return;
  }
  std::string query_text;
  Result<BatchRequest> request = BuildRequest(entry, base, &query_text);
  if (!request.ok()) {
    emit(ServeErrorLine(entry.name, request.status()), ServeAnswer::kError);
    return;
  }
  engine.Submit(*request, [query_text = std::move(query_text),
                           emit = std::move(emit)](BatchItemResult result) {
    emit(ReportToJsonLine(result.name, query_text, result.status,
                          result.report),
         ServeAnswer::kReport);
  });
}

}  // namespace termilog
