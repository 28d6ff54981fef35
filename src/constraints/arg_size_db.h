#ifndef TERMILOG_CONSTRAINTS_ARG_SIZE_DB_H_
#define TERMILOG_CONSTRAINTS_ARG_SIZE_DB_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "fm/polyhedron.h"
#include "program/ast.h"
#include "util/status.h"

namespace termilog {

/// Per-predicate argument-size knowledge: for each predicate p/n, a
/// polyhedron over n variables (the structural sizes of the arguments of
/// p's derivable facts). This is the paper's "imported feasibility
/// constraint" store (Section 3): e.g. append/3 maps to
/// { a1 + a2 - a3 = 0, a >= 0 }.
///
/// Entries are either inferred by ConstraintInference or supplied by the
/// user (the paper's manual-input mode, Section 8). For predicates without
/// an entry, Get returns the nonnegative orthant — argument sizes are sizes
/// of terms, hence always >= 0, and nothing more is known.
class ArgSizeDb {
 public:
  ArgSizeDb() = default;

  void Set(const PredId& pred, Polyhedron polyhedron);
  bool Has(const PredId& pred) const;
  /// Stored polyhedron, or the nonnegative orthant of width `pred.arity`.
  Polyhedron Get(const PredId& pred) const;

  const std::map<PredId, Polyhedron>& entries() const { return entries_; }

  /// Parses a ';'-separated textual spec over argument placeholders a1..an,
  /// e.g. "a1 + a2 = a3; a1 >= 2 + a2". Relations: =, >=, <=, >. Each side
  /// is a sum of terms `k`, `ai`, or `k*ai`. Nonnegativity of all
  /// arguments is added automatically.
  static Result<Polyhedron> ParseSpec(int arity, std::string_view spec);

  /// Multi-line report of every entry, with a1..an placeholders.
  std::string ToString(const Program& program) const;

  /// Names argument column k "a<k+1>": the placeholders ParseSpec reads,
  /// and the names every rendering of an entry (reports, cache keys) uses.
  static const std::function<std::string(int)>& ArgNamer();

 private:
  std::map<PredId, Polyhedron> entries_;
};

}  // namespace termilog

#endif  // TERMILOG_CONSTRAINTS_ARG_SIZE_DB_H_
