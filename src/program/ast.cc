#include "program/ast.h"

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

void Atom::CollectVariables(std::set<int>* out) const {
  for (const TermPtr& arg : args) arg->CollectVariables(out);
}

void Atom::AppendTo(std::string* out, const SymbolTable& symbols,
                    const VarNamer& namer) const {
  AppendApplication(out, symbols.Name(predicate), args, symbols, namer);
}

std::string Atom::ToString(const SymbolTable& symbols,
                           const std::vector<std::string>& var_names) const {
  std::string out;
  AppendTo(&out, symbols, VarNamer{&var_names});
  return out;
}

namespace {

// Binary comparison/equality predicates print infix ("X =< Y"); the parser
// accepts both forms, so round-tripping is preserved.
bool IsInfixOperator(const std::string& name) {
  return name == "=" || name == "\\=" || name == "<" || name == ">" ||
         name == "=<" || name == ">=" || name == "==" || name == "\\==" ||
         name == "is";
}

}  // namespace

void Literal::AppendTo(std::string* out, const SymbolTable& symbols,
                       const VarNamer& namer) const {
  if (!positive) *out += "\\+ ";
  const std::string& name = symbols.Name(atom.predicate);
  if (atom.args.size() == 2 && IsInfixOperator(name)) {
    atom.args[0]->AppendTo(out, symbols, namer);
    StrAppend(out, ' ', name, ' ');
    atom.args[1]->AppendTo(out, symbols, namer);
  } else {
    atom.AppendTo(out, symbols, namer);
  }
}

std::string Literal::ToString(const SymbolTable& symbols,
                              const std::vector<std::string>& var_names) const {
  std::string out;
  AppendTo(&out, symbols, VarNamer{&var_names});
  return out;
}

std::string Rule::VarName(int v) const {
  std::string out;
  VarNamer{&var_names}.AppendName(v, &out);
  return out;
}

void Rule::AppendTo(std::string* out, const SymbolTable& symbols,
                    const VarNamer& namer) const {
  head.AppendTo(out, symbols, namer);
  for (size_t i = 0; i < body.size(); ++i) {
    *out += i == 0 ? " :- " : ", ";
    body[i].AppendTo(out, symbols, namer);
  }
  out->push_back('.');
}

std::string Rule::ToString(const SymbolTable& symbols) const {
  std::string out;
  AppendTo(&out, symbols, VarNamer{&var_names});
  return out;
}

void AppendAdornment(const Adornment& adornment, std::string* out) {
  for (Mode m : adornment) out->push_back(m == Mode::kBound ? 'b' : 'f');
}

std::string AdornmentToString(const Adornment& adornment) {
  std::string out;
  AppendAdornment(adornment, &out);
  return out;
}

std::vector<int> Program::RuleIndicesFor(const PredId& pred) const {
  std::vector<int> out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].head.pred_id() == pred) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::set<PredId> Program::DefinedPredicates() const {
  std::set<PredId> out;
  for (const Rule& rule : rules_) out.insert(rule.head.pred_id());
  return out;
}

std::set<PredId> Program::AllPredicates() const {
  std::set<PredId> out = DefinedPredicates();
  for (const Rule& rule : rules_) {
    for (const Literal& lit : rule.body) out.insert(lit.atom.pred_id());
  }
  return out;
}

bool Program::IsDefined(const PredId& pred) const {
  for (const Rule& rule : rules_) {
    if (rule.head.pred_id() == pred) return true;
  }
  return false;
}

void Program::AppendPredName(const PredId& pred, std::string* out) const {
  StrAppend(out, symbols_->Name(pred.symbol), '/', pred.arity);
}

std::string Program::PredName(const PredId& pred) const {
  std::string out;
  AppendPredName(pred, &out);
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& rule : rules_) {
    out += rule.ToString(*symbols_);
    out += "\n";
  }
  for (const ModeDecl& decl : mode_decls_) {
    out += StrCat(":- mode(", PredName(decl.pred), ", ",
                  AdornmentToString(decl.adornment), ").\n");
  }
  return out;
}

}  // namespace termilog
