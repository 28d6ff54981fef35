#include "core/explain.h"

#include "core/delta.h"
#include "core/dual_builder.h"
#include "util/string_util.h"

namespace termilog {
namespace {

std::string RenderThetaRow(const Program& program, const ThetaSpace& space,
                           const ThetaRow& row, const char* delta_name) {
  std::string out;
  bool first = true;
  auto append_term = [&out, &first](const Rational& coeff,
                                    const std::string& name) {
    if (coeff.is_zero()) return;
    if (first) {
      if (coeff == Rational(1)) {
        out += name;
      } else if (coeff == Rational(-1)) {
        out += "-" + name;
      } else {
        out += coeff.ToString() + "*" + name;
      }
      first = false;
      return;
    }
    if (coeff.sign() > 0) {
      out += " + ";
      out += coeff == Rational(1) ? name : coeff.ToString() + "*" + name;
    } else {
      Rational mag = coeff.Abs();
      out += " - ";
      out += mag == Rational(1) ? name : mag.ToString() + "*" + name;
    }
  };
  for (size_t t = 0; t < row.theta_coeffs.size(); ++t) {
    append_term(row.theta_coeffs[t],
                space.ColumnName(program, static_cast<int>(t)));
  }
  append_term(row.delta_coeff, delta_name);
  if (!row.constant.is_zero() || first) {
    if (first) {
      out += row.constant.ToString();
    } else if (row.constant.sign() > 0) {
      out += " + " + row.constant.ToString();
    } else {
      out += " - " + row.constant.Abs().ToString();
    }
  }
  out += " >= 0";
  return out;
}

}  // namespace

std::string ExplainAnalysis(const TerminationReport& report,
                            const PredId& query, const Adornment& adornment,
                            const AnalysisOptions& options) {
  const Program& prog = report.analyzed_program;
  std::string out;
  out += "==================== termination proof trace ====================\n";
  out += StrCat("query: ", prog.PredName(query), " adorned ",
                AdornmentToString(adornment), "\n\n");
  out += "program analyzed (after preprocessing):\n";
  for (const Rule& rule : prog.rules()) {
    out += StrCat("  ", rule.ToString(prog.symbols()), "\n");
  }
  out += "\nmodes (Section 3 preprocessing):\n";
  for (const auto& [pred, pred_adornment] : report.modes) {
    out += StrCat("  ", prog.PredName(pred), " : ",
                  AdornmentToString(pred_adornment), "\n");
  }
  out += "\nimported inter-argument constraints ([VG90], Section 3):\n";
  std::string constraints = report.arg_sizes.ToString(prog);
  for (const std::string& line : Split(constraints, '\n')) {
    if (!line.empty()) out += StrCat("  ", line, "\n");
  }

  // Re-derive the per-SCC systems verbosely.
  for (const SccReport& scc : report.sccs) {
    out += "\n------------------------------------------------------------\n";
    out += "SCC {";
    for (size_t i = 0; i < scc.preds.size(); ++i) {
      if (i > 0) out += ", ";
      out += prog.PredName(scc.preds[i]);
    }
    out += "}\n";
    if (scc.status == SccStatus::kNonRecursive) {
      out += "  non-recursive: nothing to prove.\n";
      continue;
    }
    Result<SccDerivation> derivation = DeriveScc(
        prog, scc.preds, report.modes, report.arg_sizes, options.fm);
    if (!derivation.ok()) {
      out += StrCat("  (derivation failed: ",
                    derivation.status().ToString(), ")\n");
      continue;
    }
    for (size_t k = 0; k < derivation->systems.size(); ++k) {
      const RuleSubgoalSystem& sys = derivation->systems[k];
      out += StrCat("\nEq. 1 for ", sys.ToString(prog));
      std::string delta_name =
          StrCat("delta(", prog.symbols().Name(sys.head_pred.symbol), ",",
                 prog.symbols().Name(sys.subgoal_pred.symbol), ")");
      out += "Eq. 9 rows after eliminating w:\n";
      for (const ThetaRow& row : derivation->derived[k].rows) {
        out += StrCat("  ",
                      RenderThetaRow(prog, derivation->space, row,
                                     delta_name.c_str()),
                      "\n");
      }
    }
    DeltaAssignment assignment =
        AssignDeltas(derivation->derived, scc.preds);
    out += "\ndelta assignment (Section 6.1):\n";
    for (const auto& [edge, value] : assignment.values) {
      out += StrCat("  delta(", prog.symbols().Name(edge.first.symbol), ",",
                    prog.symbols().Name(edge.second.symbol), ") = ", value);
      bool forced = false;
      for (const auto& forced_edge : assignment.forced_zero) {
        if (forced_edge == edge) forced = true;
      }
      out += forced ? "   (forced to 0 by a derived row)\n" : "\n";
    }
    if (assignment.non_positive_cycle) {
      out += StrCat("  NON-POSITIVE CYCLE through ",
                    prog.PredName(assignment.cycle_witness),
                    " -- the paper's \"strong evidence of "
                    "nontermination\"; analysis halts for this SCC.\n");
    }
    if (!scc.reduced_constraints.empty()) {
      out += "\nfinal reduced constraints over the thetas:\n";
      for (const std::string& line : Split(scc.reduced_constraints, '\n')) {
        if (!line.empty()) out += StrCat("  ", line, "\n");
      }
    }
    out += StrCat("\nverdict for this SCC: ", SccStatusName(scc.status),
                  scc.used_negative_deltas ? " (Appendix C mode)" : "", "\n");
    if (scc.status == SccStatus::kProved) {
      out += "certificate (validated on the primal side):\n";
      out += scc.certificate.ToString(prog, report.modes);
    }
    for (const std::string& note : scc.notes) {
      out += StrCat("note: ", note, "\n");
    }
  }
  out += "\n==================== overall verdict: ";
  out += report.proved ? "TERMINATES (proved)" : "UNKNOWN";
  out += " ====================\n";
  return out;
}

}  // namespace termilog
