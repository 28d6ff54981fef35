#ifndef TERMILOG_TERM_TERM_H_
#define TERMILOG_TERM_TERM_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "term/symbol_table.h"

namespace termilog {

class Term;

/// Names the variables of a rendered term, rule or literal without
/// building a string per variable: variable v prints as `(*names)[v]` when
/// `names` has that entry and as `prefix` followed by v otherwise. The
/// default prints "_G<v>"; a rule's report form passes its source names,
/// and canonical cache keys pass prefix "V" and no names.
struct VarNamer {
  const std::vector<std::string>* names = nullptr;
  std::string_view prefix = "_G";

  void AppendName(int v, std::string* out) const;
};

/// Terms are immutable and shared; substitution application builds new
/// trees without mutating originals.
using TermPtr = std::shared_ptr<const Term>;

/// A logical term (Section 2.1 of the paper): a variable, or an
/// uninterpreted function symbol applied to terms. Constants are functors
/// of arity zero. Lists use the conventional functor "." of arity 2 (the
/// paper's infix cons) and the constant "[]".
class Term {
 public:
  enum class Kind { kVariable, kCompound };

  /// Builds a variable with clause-local (or resolution-global) index.
  static TermPtr MakeVariable(int var_id);
  /// Builds f(args...).
  static TermPtr MakeCompound(int functor, std::vector<TermPtr> args);
  /// Builds an arity-0 functor.
  static TermPtr MakeConstant(int functor);

  Kind kind() const { return kind_; }
  bool IsVariable() const { return kind_ == Kind::kVariable; }
  bool IsCompound() const { return kind_ == Kind::kCompound; }
  bool IsConstant() const { return IsCompound() && args_.empty(); }

  /// Variable index; checked failure on non-variables.
  int var_id() const;
  /// Functor symbol id; checked failure on variables.
  int functor() const;
  const std::vector<TermPtr>& args() const { return args_; }
  int arity() const { return static_cast<int>(args_.size()); }

  bool IsGround() const;
  /// Inserts the indices of all variables occurring in the term.
  void CollectVariables(std::set<int>* out) const;
  /// True if variable `var_id` occurs in the term.
  bool Mentions(int var_id) const;

  /// Structural equality (same shape, same symbols, same variable ids).
  static bool Equal(const TermPtr& a, const TermPtr& b);

  /// Appends the term with list sugar ([a,b|T]), naming variables through
  /// `namer`.
  void AppendTo(std::string* out, const SymbolTable& symbols,
                const VarNamer& namer = {}) const;
  /// The AppendTo rendering as a string.
  std::string ToString(const SymbolTable& symbols,
                       const VarNamer& namer = {}) const;

 private:
  Term(Kind kind, int id, std::vector<TermPtr> args)
      : kind_(kind), id_(id), args_(std::move(args)) {}

  Kind kind_;
  int id_;  // var_id for variables, functor symbol id for compounds
  std::vector<TermPtr> args_;
};

/// Appends `name` applied to `args`, "f(t1,...,tn)", or `name` alone when
/// `args` is empty: the printed form of a compound term and of an atom.
void AppendApplication(std::string* out, const std::string& name,
                       const std::vector<TermPtr>& args,
                       const SymbolTable& symbols, const VarNamer& namer);

/// Names of the built-in structural symbols.
inline constexpr char kConsName[] = ".";
inline constexpr char kNilName[] = "[]";

/// Convenience: builds the list [t1, ..., tn | tail] using cons/nil from
/// `symbols` (tail defaults to nil when null).
TermPtr MakeList(SymbolTable* symbols, const std::vector<TermPtr>& items,
                 TermPtr tail = nullptr);

}  // namespace termilog

#endif  // TERMILOG_TERM_TERM_H_
