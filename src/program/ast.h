#ifndef TERMILOG_PROGRAM_AST_H_
#define TERMILOG_PROGRAM_AST_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "term/symbol_table.h"
#include "term/term.h"

namespace termilog {

/// A predicate identity: symbol plus arity ("append/3").
struct PredId {
  int symbol = -1;
  int arity = 0;

  bool operator==(const PredId& o) const {
    return symbol == o.symbol && arity == o.arity;
  }
  bool operator<(const PredId& o) const {
    return symbol != o.symbol ? symbol < o.symbol : arity < o.arity;
  }
};

/// An atomic formula p(t1, ..., tn).
struct Atom {
  int predicate = -1;
  std::vector<TermPtr> args;

  PredId pred_id() const {
    return PredId{predicate, static_cast<int>(args.size())};
  }
  /// Inserts the indices of all variables of all arguments.
  void CollectVariables(std::set<int>* out) const;
  /// Appends "p(t1,...,tn)" ("p" when n is 0).
  void AppendTo(std::string* out, const SymbolTable& symbols,
                const VarNamer& namer) const;
  /// The AppendTo rendering with the rule's variable names.
  std::string ToString(const SymbolTable& symbols,
                       const std::vector<std::string>& var_names) const;
};

/// A body literal: an atom with polarity (Appendix D: negative subgoals).
struct Literal {
  Atom atom;
  bool positive = true;

  /// Appends the atom, infix for a binary comparison ("X =< Y"), after
  /// "\+ " when negative.
  void AppendTo(std::string* out, const SymbolTable& symbols,
                const VarNamer& namer) const;
  /// The AppendTo rendering with the rule's variable names.
  std::string ToString(const SymbolTable& symbols,
                       const std::vector<std::string>& var_names) const;
};

/// One rule (clause). Facts have an empty body. Variables are rule-local
/// indices 0..var_names.size()-1; var_names holds their source names.
struct Rule {
  Atom head;
  std::vector<Literal> body;
  std::vector<std::string> var_names;

  int num_vars() const { return static_cast<int>(var_names.size()); }
  /// Appends the form "h :- b1, b2." / "h.", naming variables through
  /// `namer`.
  void AppendTo(std::string* out, const SymbolTable& symbols,
                const VarNamer& namer) const;
  /// The AppendTo rendering with the source variable names, used in
  /// reports and tests.
  std::string ToString(const SymbolTable& symbols) const;
  /// Display name for the rule-local variable `v` ("_Gk" past the end,
  /// which happens for variables invented by transformations).
  std::string VarName(int v) const;
};

/// Argument mode in a query pattern: bound (input, fully instantiated when
/// called) or free (output).
enum class Mode { kBound, kFree };

/// Bound/free pattern of a predicate, e.g. append(b, b, f).
using Adornment = std::vector<Mode>;

/// Appends the adornment string, like "bbf".
void AppendAdornment(const Adornment& adornment, std::string* out);
/// The AppendAdornment rendering as a string.
std::string AdornmentToString(const Adornment& adornment);

/// A `:- mode(p(b, f)).` declaration from program text or the API.
struct ModeDecl {
  PredId pred;
  Adornment adornment;
};

/// A logic program: rules plus the shared symbol table and mode
/// declarations. EDB predicates are those appearing only in bodies.
class Program {
 public:
  Program() : symbols_(std::make_shared<SymbolTable>()) {}
  explicit Program(std::shared_ptr<SymbolTable> symbols)
      : symbols_(std::move(symbols)) {}

  SymbolTable& symbols() { return *symbols_; }
  const SymbolTable& symbols() const { return *symbols_; }
  const std::shared_ptr<SymbolTable>& symbols_ptr() const { return symbols_; }

  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& mutable_rules() { return rules_; }
  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

  const std::vector<ModeDecl>& mode_decls() const { return mode_decls_; }
  void AddModeDecl(ModeDecl decl) { mode_decls_.push_back(std::move(decl)); }

  /// Indices into rules() of the rules whose head is `pred`.
  std::vector<int> RuleIndicesFor(const PredId& pred) const;

  /// All predicates appearing as a rule head (IDB).
  std::set<PredId> DefinedPredicates() const;
  /// All predicates appearing anywhere.
  std::set<PredId> AllPredicates() const;
  bool IsDefined(const PredId& pred) const;

  /// Appends the "p/2" display form.
  void AppendPredName(const PredId& pred, std::string* out) const;
  /// The AppendPredName form as a string.
  std::string PredName(const PredId& pred) const;

  /// Full listing (rules then mode declarations).
  std::string ToString() const;

 private:
  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Rule> rules_;
  std::vector<ModeDecl> mode_decls_;
};

}  // namespace termilog

#endif  // TERMILOG_PROGRAM_AST_H_
