#include "engine/serve.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "engine/report_json.h"
#include "program/parser.h"
#include "util/string_util.h"

namespace termilog {

Result<Program> LoadProgram(const gen::ManifestEntry& entry) {
  if (!entry.error.ok()) return entry.error;
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

std::string ModeQueryText(const Program& program, const ModeDecl& decl) {
  std::string query = program.symbols().Name(decl.pred.symbol) + "(";
  for (size_t i = 0; i < decl.adornment.size(); ++i) {
    if (i > 0) query += ",";
    query += decl.adornment[i] == Mode::kBound ? "b" : "f";
  }
  return query + ")";
}

Result<std::vector<std::string>> EntryQueries(const gen::ManifestEntry& entry,
                                              const Program& program) {
  if (!entry.query.empty()) return std::vector<std::string>{entry.query};
  if (program.mode_decls().empty()) {
    return Status::InvalidArgument(
        "no \"query\" given and no :- mode(...) directive in the program");
  }
  std::vector<std::string> queries;
  for (const ModeDecl& decl : program.mode_decls()) {
    queries.push_back(ModeQueryText(program, decl));
  }
  return queries;
}

Result<BatchRequest> PlanRequest(const gen::ManifestEntry& entry,
                                 std::string name, Program program,
                                 const std::string& query,
                                 const AnalysisOptions& base) {
  Result<std::pair<PredId, Adornment>> parsed_query =
      ParseQuerySpec(program, query);
  if (!parsed_query.ok()) return parsed_query.status();
  BatchRequest request;
  request.name = std::move(name);
  request.program = std::move(program);
  request.query = parsed_query->first;
  request.adornment = parsed_query->second;
  request.options = base;
  if (entry.has_limits) request.options.limits = entry.limits;
  return request;
}

condinf::ConditionsSweep PlanSweep(const gen::ManifestEntry& entry,
                                   Program program,
                                   const AnalysisOptions& base) {
  condinf::ConditionsOptions options;
  options.analysis = base;
  if (entry.has_limits) options.analysis.limits = entry.limits;
  return condinf::ConditionsSweep(entry.name, std::move(program), options);
}

std::string ServeErrorLine(const std::string& name, const Status& status) {
  return ReportToJsonLine(name, "", status, TerminationReport());
}

std::string EntryErrorLine(const gen::ManifestEntry& entry,
                           const Status& status) {
  if (entry.kind != "conditions") return ServeErrorLine(entry.name, status);
  condinf::ConditionsReport report;
  report.name = entry.name;
  report.status = status;
  return condinf::ConditionsReportToJsonLine(report);
}

std::string ServeShedLine(const std::string& name, int queue_limit) {
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
  Result<Program> program = LoadProgram(entry);
  if (!program.ok()) {
    emit(EntryErrorLine(entry, program.status()), ServeAnswer::kError);
    return;
  }
  if (entry.kind == "conditions") {
    // A sweep of the whole program's mode lattices (docs/conditions.md),
    // sharing the engine and its caches with the plain requests.
    condinf::SubmitConditionsSweep(
        engine, PlanSweep(entry, std::move(*program), base),
        [emit = std::move(emit)](condinf::ConditionsReport report) {
          emit(condinf::ConditionsReportToJsonLine(report),
               ServeAnswer::kConditionsReport);
        });
    return;
  }
  Result<std::vector<std::string>> queries = EntryQueries(entry, *program);
  if (!queries.ok()) {
    emit(EntryErrorLine(entry, queries.status()), ServeAnswer::kError);
    return;
  }
  std::string query = std::move(queries->front());
  Result<BatchRequest> request =
      PlanRequest(entry, entry.name, std::move(*program), query, base);
  if (!request.ok()) {
    emit(EntryErrorLine(entry, request.status()), ServeAnswer::kError);
    return;
  }
  engine.Submit(*request, [query = std::move(query),
                           emit = std::move(emit)](BatchItemResult result) {
    emit(ReportToJsonLine(result.name, query, result.status, result.report),
         ServeAnswer::kReport);
  });
}

}  // namespace termilog
