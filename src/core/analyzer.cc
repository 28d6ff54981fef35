#include "core/analyzer.h"

#include <algorithm>
#include <set>
#include <utility>

#include "core/delta.h"
#include "core/dual_builder.h"
#include "engine/engine.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "lp/simplex.h"
#include "obs/obs.h"
#include "program/modes.h"
#include "transform/adornment.h"
#include "transform/pipeline.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {

const char* SccStatusName(SccStatus status) {
  switch (status) {
    case SccStatus::kNonRecursive:
      return "NON_RECURSIVE";
    case SccStatus::kProved:
      return "PROVED";
    case SccStatus::kNotProved:
      return "NOT_PROVED";
    case SccStatus::kNonPositiveCycle:
      return "NON_POSITIVE_CYCLE";
    case SccStatus::kUnsupported:
      return "UNSUPPORTED";
    case SccStatus::kResourceLimit:
      return "RESOURCE_LIMIT";
  }
  return "UNKNOWN";
}

Result<std::pair<PredId, Adornment>> ParseQuerySpec(const Program& program,
                                                    std::string_view spec) {
  spec = StripWhitespace(spec);
  size_t open = spec.find('(');
  if (open == std::string_view::npos || spec.back() != ')') {
    return Status::InvalidArgument(
        StrCat("bad query spec '", spec, "', want pred(b,f,...)"));
  }
  std::string name(StripWhitespace(spec.substr(0, open)));
  Adornment adornment;
  std::string_view args = spec.substr(open + 1, spec.size() - open - 2);
  std::vector<std::string> pieces =
      StripWhitespace(args).empty() ? std::vector<std::string>{}
                                    : Split(args, ',');
  for (const std::string& piece : pieces) {
    std::string_view mode = StripWhitespace(piece);
    if (mode == "b" || mode == "bound") {
      adornment.push_back(Mode::kBound);
    } else if (mode == "f" || mode == "free") {
      adornment.push_back(Mode::kFree);
    } else {
      return Status::InvalidArgument(StrCat("bad mode '", mode, "'"));
    }
  }
  int symbol = program.symbols().Lookup(name);
  PredId pred{symbol, static_cast<int>(adornment.size())};
  if (symbol < 0 || !program.IsDefined(pred)) {
    return Status::InvalidArgument(
        StrCat("query predicate ", name, "/", adornment.size(),
               " is not defined in the program"));
  }
  return std::make_pair(pred, adornment);
}

namespace {

// Builds the dependency digraph over the given predicate universe.
Digraph BuildDependencyGraph(const Program& program,
                             const std::vector<PredId>& preds,
                             const std::map<PredId, int>& index) {
  Digraph graph(static_cast<int>(preds.size()));
  for (const Rule& rule : program.rules()) {
    auto from = index.find(rule.head.pred_id());
    if (from == index.end()) continue;
    for (const Literal& lit : rule.body) {
      auto to = index.find(lit.atom.pred_id());
      if (to != index.end()) graph.AddEdge(from->second, to->second);
    }
  }
  return graph;
}

}  // namespace

SccReport TerminationAnalyzer::AnalyzeScc(
    const Program& program, const std::vector<PredId>& scc_preds,
    const std::map<PredId, Adornment>& modes, const ArgSizeDb& db,
    bool has_conflict, const ResourceGovernor* governor) const {
  TERMILOG_TRACE_SPAN(scc_span, "scc.analyze", "analyzer", 0);
  if (scc_span.active() && !scc_preds.empty()) {
    scc_span.AddArg("scc", program.PredName(scc_preds.front()));
  }
  SccReport report;
  report.preds = scc_preds;

  if (TERMILOG_FAILPOINT_HIT("analyzer.scc")) {
    report.status = SccStatus::kResourceLimit;
    report.notes.push_back(FailpointRegistry::TripMessage("analyzer.scc"));
    return report;
  }

  FmOptions fm = options_.fm;
  fm.governor = governor;

  if (has_conflict) {
    report.status = SccStatus::kUnsupported;
    report.notes.push_back(
        "adornment conflict: the method requires one bound-free pattern per "
        "predicate (see Appendix A transformations)");
    return report;
  }

  std::set<PredId> scc_set(scc_preds.begin(), scc_preds.end());
  RuleSystemBuilder builder(program, modes, db);
  Result<std::vector<RuleSubgoalSystem>> systems = [&] {
    TERMILOG_TRACE("scc.rule_system", "analyzer");
    return builder.BuildForScc(scc_set);
  }();
  if (!systems.ok()) {
    report.status = systems.status().code() == StatusCode::kUnsupported
                        ? SccStatus::kUnsupported
                        : SccStatus::kResourceLimit;
    report.notes.push_back(systems.status().ToString());
    return report;
  }
  if (systems->empty()) {
    report.status = SccStatus::kNonRecursive;
    return report;
  }

  // Theta space over the bound arguments of the SCC's predicates.
  std::map<PredId, int> bound_counts;
  for (const PredId& pred : scc_preds) {
    int count = 0;
    for (Mode m : modes.at(pred)) {
      if (m == Mode::kBound) ++count;
    }
    bound_counts[pred] = count;
  }
  ThetaSpace space(bound_counts);

  std::vector<DerivedConstraints> derived;
  {
    TERMILOG_TRACE("scc.derive", "analyzer");
    for (const RuleSubgoalSystem& sys : *systems) {
      Result<DerivedConstraints> d = BuildDerivedConstraints(sys, space, fm);
      if (!d.ok()) {
        report.status = SccStatus::kResourceLimit;
        report.notes.push_back(d.status().ToString());
        return report;
      }
      derived.push_back(std::move(d).value());
    }
  }

  const int T = space.total();
  std::function<std::string(int)> namer = [&](int column) {
    return space.ColumnName(program, column);
  };

  // ---- Integral path (Section 6.1): deltas in {0, 1}. ----
  DeltaAssignment assignment = AssignDeltas(derived, scc_preds);
  if (!assignment.non_positive_cycle) {
    ConstraintSystem global(T);
    for (const DerivedConstraints& d : derived) {
      int64_t delta = assignment.values.at({d.i, d.j});
      for (const ThetaRow& row : d.rows) {
        Constraint out;
        out.rel = Relation::kGe;
        out.coeffs = row.theta_coeffs;
        out.constant = row.constant + row.delta_coeff * Rational(delta);
        global.Add(std::move(out));
      }
    }
    global.Simplify();
    report.reduced_constraints = global.ToString(&namer);
    // theta >= 0
    LpResult lp = [&] {
      TERMILOG_TRACE("scc.lp_integral", "analyzer");
      return SimplexSolver::FindFeasible(global, {}, governor);
    }();
    if (lp.status == LpStatus::kPivotLimit) {
      report.status = SccStatus::kResourceLimit;
      report.notes.push_back("feasibility LP resource-limited");
      return report;
    }
    if (lp.status == LpStatus::kOptimal) {
      for (const PredId& pred : scc_preds) {
        std::vector<Rational> theta(bound_counts.at(pred));
        for (size_t k = 0; k < theta.size(); ++k) {
          theta[k] = lp.point[space.Column(pred, static_cast<int>(k))];
        }
        report.certificate.theta.emplace(pred, std::move(theta));
      }
      for (const auto& [edge, value] : assignment.values) {
        report.certificate.delta.emplace(edge, Rational(value));
      }
      if (options_.validate_certificates) {
        Status valid = [&] {
          TERMILOG_TRACE("scc.validate", "analyzer");
          return ValidateCertificate(*systems, scc_preds, report.certificate,
                                     governor);
        }();
        if (!valid.ok()) {
          report.status = SccStatus::kResourceLimit;
          report.notes.push_back(
              StrCat("certificate validation failed: ", valid.ToString()));
          return report;
        }
        report.notes.push_back("certificate validated on the primal side");
      }
      report.status = SccStatus::kProved;
      return report;
    }
  } else {
    report.notes.push_back(StrCat(
        "zero-weight cycle through ", program.PredName(assignment.cycle_witness),
        " under forced deltas"));
  }

  // ---- Appendix C path: free deltas + positive-cycle path constraints. --
  if (options_.allow_negative_deltas) {
    const int m = static_cast<int>(scc_preds.size());
    std::map<std::pair<PredId, PredId>, int> delta_col;
    int next = T;
    std::set<std::pair<PredId, PredId>> edges;
    for (const DerivedConstraints& d : derived) edges.insert({d.i, d.j});
    for (const auto& edge : edges) delta_col[edge] = next++;
    const int sigma_base = next;
    auto sigma_col = [&](int i, int j) { return sigma_base + i * m + j; };
    const int width = sigma_base + m * m;

    ConstraintSystem system(width);
    for (const DerivedConstraints& d : derived) {
      int dcol = delta_col.at({d.i, d.j});
      for (const ThetaRow& row : d.rows) {
        Constraint out;
        out.rel = Relation::kGe;
        out.coeffs.assign(width, Rational());
        for (int t = 0; t < T; ++t) out.coeffs[t] = row.theta_coeffs[t];
        out.coeffs[dcol] = row.delta_coeff;
        out.constant = row.constant;
        system.Add(std::move(out));
      }
    }
    std::map<PredId, int> index;
    for (int i = 0; i < m; ++i) index[scc_preds[i]] = i;
    // sigma_ij <= delta_ij for real edges.
    for (const auto& [edge, dcol] : delta_col) {
      Constraint out;
      out.rel = Relation::kGe;
      out.coeffs.assign(width, Rational());
      out.coeffs[dcol] = Rational(1);
      out.coeffs[sigma_col(index.at(edge.first), index.at(edge.second))] =
          Rational(-1);
      system.Add(std::move(out));
    }
    // Triangle path constraints sigma_ij <= sigma_ik + sigma_kj.
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) {
        for (int k = 0; k < m; ++k) {
          if (k == i || k == j) continue;
          Constraint out;
          out.rel = Relation::kGe;
          out.coeffs.assign(width, Rational());
          out.coeffs[sigma_col(i, k)] += Rational(1);
          out.coeffs[sigma_col(k, j)] += Rational(1);
          out.coeffs[sigma_col(i, j)] -= Rational(1);
          system.Add(std::move(out));
        }
      }
    }
    // Positive cycles: sigma_ii >= 1.
    for (int i = 0; i < m; ++i) {
      Constraint out;
      out.rel = Relation::kGe;
      out.coeffs.assign(width, Rational());
      out.coeffs[sigma_col(i, i)] = Rational(1);
      out.constant = Rational(-1);
      system.Add(std::move(out));
    }
    std::vector<bool> is_free(width, false);
    for (int col = T; col < width; ++col) is_free[col] = true;  // deltas, sigmas
    LpResult lp = [&] {
      TERMILOG_TRACE("scc.lp_negdelta", "analyzer");
      return SimplexSolver::FindFeasible(system, is_free, governor);
    }();
    if (lp.status == LpStatus::kPivotLimit) {
      report.status = SccStatus::kResourceLimit;
      report.notes.push_back("negative-delta feasibility LP resource-limited");
      return report;
    }
    if (lp.status == LpStatus::kOptimal) {
      for (const PredId& pred : scc_preds) {
        std::vector<Rational> theta(bound_counts.at(pred));
        for (size_t k = 0; k < theta.size(); ++k) {
          theta[k] = lp.point[space.Column(pred, static_cast<int>(k))];
        }
        report.certificate.theta.emplace(pred, std::move(theta));
      }
      for (const auto& [edge, dcol] : delta_col) {
        report.certificate.delta.emplace(edge, lp.point[dcol]);
      }
      report.used_negative_deltas = true;
      if (options_.validate_certificates) {
        Status valid = [&] {
          TERMILOG_TRACE("scc.validate", "analyzer");
          return ValidateCertificate(*systems, scc_preds, report.certificate,
                                     governor);
        }();
        if (!valid.ok()) {
          report.status = SccStatus::kResourceLimit;
          report.notes.push_back(
              StrCat("certificate validation failed: ", valid.ToString()));
          return report;
        }
        report.notes.push_back(
            "certificate (negative-delta mode) validated on the primal side");
      }
      report.status = SccStatus::kProved;
      return report;
    }
  }

  report.status = assignment.non_positive_cycle
                      ? SccStatus::kNonPositiveCycle
                      : SccStatus::kNotProved;
  return report;
}

Result<PreparedAnalysis> TerminationAnalyzer::PrepareStructure(
    const Program& program, const PredId& query, const Adornment& adornment,
    const ResourceGovernor* gov) const {
  TERMILOG_TRACE("prep", "analyzer");
  PreparedAnalysis prepared;
  TerminationReport& report = prepared.report;
  report.analyzed_program = program;
  PredId entry = query;

  auto note_trip = [&report](const std::string& message) {
    report.resource_limited = true;
    if (report.first_resource_trip.empty()) {
      report.first_resource_trip = message;
    }
  };

  if (options_.apply_transformations) {
    TransformOptions transform_options;
    transform_options.governor = gov;
    Result<Program> transformed = RunTransformPipeline(
        program, {query}, transform_options, &report.notes);
    if (transformed.ok()) {
      report.analyzed_program = std::move(transformed).value();
    } else if (transformed.status().code() ==
               StatusCode::kResourceExhausted) {
      // Rung 2 of the degradation ladder: a transform blowup is not fatal —
      // the untransformed program is analyzable, just possibly with weaker
      // verdicts.
      std::string message =
          StrCat("transformations abandoned (", transformed.status().message(),
                 "); analyzing the untransformed program");
      report.notes.push_back(message);
      note_trip(message);
      report.analyzed_program = program;
    } else {
      return transformed.status();
    }
  }

  // Modes; adornment conflicts are repaired by cloning (Section 3's
  // preprocessing assumption, made real). Cloning can expose conflicts in
  // contexts the first dataflow never explored, hence the short loop.
  if (static_cast<int>(adornment.size()) != entry.arity) {
    return Status::InvalidArgument("query adornment arity mismatch");
  }
  obs::SpanId modes_span = obs::BeginSpan("prep.modes", "analyzer");
  ModeAnalysisResult mode_result =
      InferModes(report.analyzed_program, entry, adornment);
  for (int round = 0; round < 4 && mode_result.HasConflicts(); ++round) {
    AdornmentCloneResult cloned = CloneConflictingAdornments(
        report.analyzed_program, entry, adornment);
    if (!cloned.changed) break;
    report.analyzed_program = std::move(cloned.program);
    entry = cloned.query;
    for (const std::string& line : cloned.log) report.notes.push_back(line);
    mode_result = InferModes(report.analyzed_program, entry, adornment);
  }
  obs::EndSpan(modes_span);
  const Program& analyzed = report.analyzed_program;
  report.modes = mode_result.adornments;
  for (const std::string& conflict : mode_result.conflicts) {
    report.notes.push_back(conflict);
  }

  // Inter-argument constraints: supplied first, then inference.
  for (const auto& [pred_spec, constraint_spec] :
       options_.supplied_constraints) {
    size_t slash = pred_spec.find('/');
    if (slash == std::string::npos) {
      return Status::InvalidArgument(
          StrCat("bad predicate spec '", pred_spec, "', want name/arity"));
    }
    PredId pred;
    pred.symbol = report.analyzed_program.symbols().Intern(
        pred_spec.substr(0, slash));
    pred.arity = 0;
    for (char digit : pred_spec.substr(slash + 1)) {
      if (digit < '0' || digit > '9') {
        return Status::InvalidArgument(
            StrCat("bad arity in '", pred_spec, "'"));
      }
      pred.arity = pred.arity * 10 + (digit - '0');
    }
    Result<Polyhedron> parsed =
        ArgSizeDb::ParseSpec(pred.arity, constraint_spec);
    if (!parsed.ok()) return parsed.status();
    report.arg_sizes.Set(pred, std::move(parsed).value());
  }
  // Dependency SCCs over the predicates reachable from the query (those
  // the mode analysis visited).
  TERMILOG_TRACE("prep.condense", "analyzer");
  std::vector<PredId> preds;
  for (const auto& [pred, pred_adornment] : report.modes) {
    (void)pred_adornment;
    preds.push_back(pred);
  }
  std::map<PredId, int> index;
  for (size_t i = 0; i < preds.size(); ++i) {
    index[preds[i]] = static_cast<int>(i);
  }
  Digraph graph = BuildDependencyGraph(analyzed, preds, index);

  const std::set<PredId>& conflicted = mode_result.conflicted;

  for (const std::vector<int>& component :
       StronglyConnectedComponents(graph)) {
    SccTask task;
    for (int node : component) {
      task.preds.push_back(preds[node]);
      if (conflicted.count(preds[node]) != 0) task.has_conflict = true;
    }
    task.recursive = IsRecursiveComponent(graph, component);
    prepared.sccs.push_back(std::move(task));
  }

  if (options_.run_inference) {
    prepared.inference =
        ConstraintInference::BuildPlan(analyzed, report.arg_sizes);
  }
  return prepared;
}

namespace {

// Runs one engine request per (predicate, adornment) pair, at jobs=1 with
// the content cache on, so SCCs shared between the requests are solved
// once. Results come back in `queries` order.
std::vector<BatchItemResult> RunOnEngine(const Program& program,
                                         const AnalysisOptions& options,
                                         const std::vector<ModeDecl>& queries) {
  BatchEngine engine(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<BatchRequest> requests;
  requests.reserve(queries.size());
  for (const ModeDecl& query : queries) {
    BatchRequest request;
    request.name = StrCat(program.PredName(query.pred), " ",
                          AdornmentToString(query.adornment));
    request.program = program;
    request.query = query.pred;
    request.adornment = query.adornment;
    request.options = options;
    requests.push_back(std::move(request));
  }
  return engine.Run(requests);
}

}  // namespace

Result<TerminationReport> TerminationAnalyzer::Analyze(
    const Program& program, const PredId& query,
    const Adornment& adornment) const {
  BatchItemResult result = std::move(
      RunOnEngine(program, options_, {ModeDecl{query, adornment}}).front());
  if (!result.status.ok()) return result.status;
  return std::move(result.report);
}

Result<std::vector<std::pair<ModeDecl, TerminationReport>>>
TerminationAnalyzer::AnalyzeDeclaredModes(const Program& program) const {
  if (program.mode_decls().empty()) {
    return Status::InvalidArgument(
        "the program declares no :- mode(...) directives");
  }
  std::vector<BatchItemResult> results =
      RunOnEngine(program, options_, program.mode_decls());

  std::vector<std::pair<ModeDecl, TerminationReport>> out;
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeDecl& decl = program.mode_decls()[i];
    BatchItemResult& result = results[i];
    if (!result.status.ok()) {
      // Isolate the failure to this mode: the other declared modes still
      // deserve real analyses.
      TerminationReport failed;
      failed.analyzed_program = program;
      failed.proved = false;
      std::string message = StrCat("analysis of this mode failed: ",
                                   result.status.ToString());
      failed.notes.push_back(message);
      if (result.status.code() == StatusCode::kResourceExhausted) {
        failed.resource_limited = true;
        failed.first_resource_trip = message;
      }
      out.emplace_back(decl, std::move(failed));
      continue;
    }
    out.emplace_back(decl, std::move(result.report));
  }
  return out;
}

Result<TerminationReport> TerminationAnalyzer::Analyze(
    const Program& program, std::string_view query_spec) const {
  Result<std::pair<PredId, Adornment>> query =
      ParseQuerySpec(program, query_spec);
  if (!query.ok()) return query.status();
  return Analyze(program, query->first, query->second);
}

std::string TerminationReport::ToString() const {
  std::string out;
  out += StrCat("verdict: ", proved ? "TERMINATES (proved)" : "UNKNOWN",
                "\n");
  if (resource_limited) {
    out += StrCat("resource-limited: ", first_resource_trip, "\n");
  }
  out += "modes:\n";
  for (const auto& [pred, adornment] : modes) {
    out += StrCat("  ", analyzed_program.PredName(pred), " : ",
                  AdornmentToString(adornment), "\n");
  }
  for (const SccReport& scc : sccs) {
    out += "scc {";
    for (size_t i = 0; i < scc.preds.size(); ++i) {
      if (i > 0) out += ", ";
      out += analyzed_program.PredName(scc.preds[i]);
    }
    out += StrCat("}: ", SccStatusName(scc.status));
    if (scc.used_negative_deltas) out += " (negative-delta mode)";
    out += "\n";
    if (scc.status == SccStatus::kProved) {
      out += scc.certificate.ToString(analyzed_program, modes);
    }
    if (!scc.reduced_constraints.empty()) {
      out += "  reduced constraints:\n";
      for (const std::string& line : Split(scc.reduced_constraints, '\n')) {
        if (!line.empty()) out += StrCat("    ", line, "\n");
      }
    }
    for (const std::string& note : scc.notes) {
      out += StrCat("  note: ", note, "\n");
    }
  }
  for (const std::string& note : notes) {
    out += StrCat("note: ", note, "\n");
  }
  return out;
}

}  // namespace termilog
