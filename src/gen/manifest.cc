// JSONL manifest emission and parsing for generated workloads
// (docs/generator.md). The emit side is deterministic — equal workloads
// produce byte-identical manifests — because the determinism property
// tests and the seeding contract both key on manifest bytes.

#include <utility>

#include "gen/gen.h"
#include "program/parser.h"
#include "util/json.h"
#include "util/string_util.h"

namespace termilog {
namespace gen {

std::string RequestToManifestLine(const GeneratedRequest& request) {
  std::string out = StrCat("{\"name\":\"", JsonEscape(request.name),
                           "\",\"query\":\"", JsonEscape(request.query),
                           "\"");
  if (request.kind.empty()) {
    out += StrCat(",\"expect\":\"", ExpectedVerdictName(request.expect),
                  "\"");
  } else {
    // Conditions requests declare minimal-mode sets, not a verdict.
    out += StrCat(",\"kind\":\"", JsonEscape(request.kind), "\"");
    out += ",\"expect_modes\":{";
    for (size_t p = 0; p < request.expect_modes.size(); ++p) {
      const auto& [pred, modes] = request.expect_modes[p];
      if (p > 0) out += ',';
      out += StrCat("\"", JsonEscape(pred), "\":[");
      for (size_t m = 0; m < modes.size(); ++m) {
        if (m > 0) out += ',';
        out += StrCat("\"", JsonEscape(modes[m]), "\"");
      }
      out += ']';
    }
    out += '}';
  }
  out += ",\"sccs\":[";
  for (size_t i = 0; i < request.scc_sizes.size(); ++i) {
    if (i > 0) out += ',';
    out += StrCat(request.scc_sizes[i]);
  }
  out += ']';
  if (request.limits.work_budget > 0 || request.limits.deadline_ms > 0 ||
      request.limits.bigint_limb_limit > 0) {
    out += ",\"limits\":{";
    bool first = true;
    auto field = [&](const char* key, int64_t value) {
      if (value <= 0) return;
      if (!first) out += ',';
      first = false;
      out += StrCat("\"", key, "\":", value);
    };
    field("work_budget", request.limits.work_budget);
    field("deadline_ms", request.limits.deadline_ms);
    field("limb_limit", request.limits.bigint_limb_limit);
    out += '}';
  }
  out += StrCat(",\"source\":\"", JsonEscape(request.source), "\"}");
  return out;
}

std::string WorkloadToManifestJsonl(const GeneratedWorkload& workload) {
  std::string out = StrCat(
      "{\"gen_manifest\":1,\"spec\":\"",
      JsonEscape(GenSpecToString(workload.params)), "\",\"count\":",
      workload.requests.size(), "}\n");
  for (const GeneratedRequest& request : workload.requests) {
    out += RequestToManifestLine(request);
    out += '\n';
  }
  return out;
}

ManifestEntry ParseManifestLine(std::string_view line, size_t line_number) {
  ManifestEntry entry;
  entry.line_number = line_number;
  entry.name = StrCat("manifest:", line_number);
  auto fail = [&](std::string message) {
    entry.error = Status::InvalidArgument(
        StrCat("manifest line ", line_number, ": ", std::move(message)));
    return entry;
  };
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return fail(std::string(parsed.status().message()));
  const JsonValue& object = *parsed;
  if (!object.IsObject()) return fail("expected a JSON object");
  if (object.Has("gen_manifest")) {  // header / provenance line
    entry.header = true;
    return entry;
  }
  entry.name = object.At("name").StringOr("");
  entry.file = object.At("file").StringOr("");
  entry.source = object.At("source").StringOr("");
  entry.query = object.At("query").StringOr("");
  entry.expect = object.At("expect").StringOr("");
  entry.kind = object.At("kind").StringOr("");
  if (entry.name.empty()) {
    entry.name = entry.file.empty() ? StrCat("manifest:", line_number)
                                    : entry.file;
  }
  if (entry.file.empty() && entry.source.empty()) {
    return fail("needs \"source\" or \"file\"");
  }
  if (!entry.kind.empty() && entry.kind != "analyze" &&
      entry.kind != "conditions") {
    // The per-request error shape every consumer (--batch lines, --serve
    // responses) already renders; an unknown kind never aborts the batch.
    return fail(StrCat("unknown request kind \"", entry.kind, "\""));
  }
  if (!entry.expect.empty()) {
    ExpectedVerdict ignored;
    if (!ParseExpectedVerdict(entry.expect, &ignored)) {
      return fail(StrCat("unknown expect \"", entry.expect, "\""));
    }
  }
  const JsonValue& expect_modes = object.At("expect_modes");
  if (expect_modes.IsObject()) {
    for (const auto& [pred, modes] : expect_modes.fields) {
      if (!modes.IsArray()) {
        return fail(StrCat("expect_modes for ", pred, " must be an array"));
      }
      std::vector<std::string> list;
      for (const JsonValue& mode : modes.items) {
        if (!mode.IsString()) {
          return fail(StrCat("expect_modes for ", pred,
                             " must hold mode strings"));
        }
        list.push_back(mode.text);
      }
      entry.expect_modes.emplace_back(pred, std::move(list));
    }
  }
  const JsonValue& limits = object.At("limits");
  if (limits.IsObject()) {
    entry.has_limits = true;
    entry.limits.work_budget = limits.At("work_budget").IntOr(0);
    entry.limits.deadline_ms = limits.At("deadline_ms").IntOr(0);
    entry.limits.bigint_limb_limit = limits.At("limb_limit").IntOr(0);
  }
  return entry;
}

std::vector<ManifestEntry> ParseManifestJsonl(std::string_view text) {
  std::vector<ManifestEntry> entries;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t newline = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, newline == std::string_view::npos ? std::string_view::npos
                                               : newline - pos);
    pos = newline == std::string_view::npos ? text.size() : newline + 1;
    ++line_number;
    line = StripWhitespace(line);
    if (line.empty()) continue;
    ManifestEntry entry = ParseManifestLine(line, line_number);
    if (entry.header) continue;
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<std::vector<BatchRequest>> WorkloadToBatchRequests(
    const GeneratedWorkload& workload) {
  std::vector<BatchRequest> requests;
  requests.reserve(workload.requests.size());
  for (const GeneratedRequest& generated : workload.requests) {
    Result<Program> program = ParseProgram(generated.source);
    if (!program.ok()) {
      return Status::Internal(StrCat("generated program ", generated.name,
                                     " failed to parse: ",
                                     program.status().message()));
    }
    Result<std::pair<PredId, Adornment>> query =
        ParseQuerySpec(*program, generated.query);
    if (!query.ok()) {
      return Status::Internal(StrCat("generated query for ", generated.name,
                                     " failed to parse: ",
                                     query.status().message()));
    }
    BatchRequest request;
    request.name = generated.name;
    request.program = std::move(*program);
    request.query = query->first;
    request.adornment = query->second;
    request.options.limits = generated.limits;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace gen
}  // namespace termilog
