#include "engine/cached_outcomes.h"

#include <utility>

#include "util/check.h"

namespace termilog {
namespace {

PredId ResolvePred(const Program& program, const std::string& name,
                   int arity) {
  int symbol = program.symbols().Lookup(name);
  TERMILOG_CHECK_MSG(symbol >= 0,
                     "cached outcome names a predicate absent from the "
                     "requesting program");
  return PredId{symbol, arity};
}

}  // namespace

CachedSccOutcome DehydrateSccReport(const SccReport& report,
                                    const Program& program) {
  CachedSccOutcome out;
  out.status = report.status;
  out.used_negative_deltas = report.used_negative_deltas;
  out.reduced_constraints = report.reduced_constraints;
  out.notes = report.notes;
  for (const auto& [pred, coeffs] : report.certificate.theta) {
    out.theta.push_back(
        {program.symbols().Name(pred.symbol), pred.arity, coeffs});
  }
  for (const auto& [edge, value] : report.certificate.delta) {
    out.delta.push_back({program.symbols().Name(edge.first.symbol),
                         edge.first.arity,
                         program.symbols().Name(edge.second.symbol),
                         edge.second.arity, value});
  }
  return out;
}

SccReport RehydrateSccReport(const CachedSccOutcome& outcome,
                             const Program& program,
                             std::vector<PredId> scc_preds) {
  SccReport report;
  report.preds = std::move(scc_preds);
  report.status = outcome.status;
  report.used_negative_deltas = outcome.used_negative_deltas;
  report.reduced_constraints = outcome.reduced_constraints;
  report.notes = outcome.notes;
  for (const CachedSccOutcome::NamedTheta& theta : outcome.theta) {
    report.certificate.theta.emplace(
        ResolvePred(program, theta.name, theta.arity), theta.coeffs);
  }
  for (const CachedSccOutcome::NamedDelta& delta : outcome.delta) {
    report.certificate.delta.emplace(
        std::make_pair(ResolvePred(program, delta.from_name, delta.from_arity),
                       ResolvePred(program, delta.to_name, delta.to_arity)),
        delta.value);
  }
  return report;
}

CachedInferenceOutcome DehydrateInferenceResult(
    const SccInferenceResult& result, const Program& program) {
  CachedInferenceOutcome out;
  out.resource_limited = result.resource_limited;
  out.trip_message = result.trip_message;
  for (const auto& [pred, polyhedron] : result.entries) {
    out.entries.push_back(
        {program.symbols().Name(pred.symbol), pred.arity, polyhedron});
  }
  return out;
}

void ApplyInferenceOutcome(const CachedInferenceOutcome& outcome,
                           const Program& program, ArgSizeDb* db) {
  if (outcome.resource_limited) return;
  for (const CachedInferenceOutcome::Entry& entry : outcome.entries) {
    db->Set(ResolvePred(program, entry.name, entry.arity), entry.polyhedron);
  }
}

}  // namespace termilog
