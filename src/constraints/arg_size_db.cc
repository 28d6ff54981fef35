#include "constraints/arg_size_db.h"

#include <cctype>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

void ArgSizeDb::Set(const PredId& pred, Polyhedron polyhedron) {
  TERMILOG_CHECK(polyhedron.num_vars() == pred.arity);
  entries_.insert_or_assign(pred, std::move(polyhedron));
}

bool ArgSizeDb::Has(const PredId& pred) const {
  return entries_.count(pred) != 0;
}

Polyhedron ArgSizeDb::Get(const PredId& pred) const {
  auto it = entries_.find(pred);
  if (it != entries_.end()) return it->second;
  return Polyhedron::NonNegativeOrthant(pred.arity);
}

namespace {

// Parses one side of a spec constraint ("2 + 3*a1 - a2") into a LinearExpr
// over variables a1..a<arity> (0-based indices).
Result<LinearExpr> ParseSide(std::string_view text, int arity) {
  LinearExpr expr;
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  bool first = true;
  while (true) {
    skip_space();
    if (pos >= text.size()) {
      if (first) return Status::InvalidArgument("empty expression side");
      break;
    }
    Rational sign(1);
    if (text[pos] == '+') {
      ++pos;
    } else if (text[pos] == '-') {
      sign = Rational(-1);
      ++pos;
    } else if (!first) {
      return Status::InvalidArgument(
          StrCat("expected '+' or '-' in spec at '", text.substr(pos), "'"));
    }
    first = false;
    skip_space();
    // Optional coefficient.
    Rational coeff(1);
    bool saw_number = false;
    if (pos < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[pos]))) {
      size_t start = pos;
      while (pos < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '/')) {
        ++pos;
      }
      Result<Rational> value =
          Rational::FromString(text.substr(start, pos - start));
      if (!value.ok()) return value.status();
      coeff = *value;
      saw_number = true;
      skip_space();
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        skip_space();
      } else if (pos >= text.size() || text[pos] != 'a') {
        // Pure constant term.
        expr.set_constant(expr.constant() + sign * coeff);
        continue;
      }
    }
    if (pos < text.size() && text[pos] == 'a') {
      ++pos;
      size_t start = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      if (start == pos) {
        return Status::InvalidArgument("expected argument index after 'a'");
      }
      int index = 0;
      for (size_t i = start; i < pos; ++i) index = index * 10 + (text[i] - '0');
      if (index < 1 || index > arity) {
        return Status::InvalidArgument(
            StrCat("argument index a", index, " out of range 1..", arity));
      }
      expr.AddToCoeff(index - 1, sign * coeff);
      continue;
    }
    if (saw_number) continue;
    return Status::InvalidArgument(
        StrCat("unexpected token in spec at '", text.substr(pos), "'"));
  }
  return expr;
}

}  // namespace

Result<Polyhedron> ArgSizeDb::ParseSpec(int arity, std::string_view spec) {
  Polyhedron out = Polyhedron::NonNegativeOrthant(arity);
  for (const std::string& piece : Split(spec, ';')) {
    std::string_view text = StripWhitespace(piece);
    if (text.empty()) continue;
    // Find the relation operator.
    static constexpr std::string_view kRels[] = {">=", "<=", "=", ">", "<"};
    size_t rel_pos = std::string_view::npos;
    std::string_view rel;
    for (std::string_view candidate : kRels) {
      size_t at = text.find(candidate);
      if (at != std::string_view::npos) {
        rel_pos = at;
        rel = candidate;
        break;
      }
    }
    if (rel_pos == std::string_view::npos) {
      return Status::InvalidArgument(
          StrCat("no relation in constraint '", text, "'"));
    }
    Result<LinearExpr> lhs = ParseSide(text.substr(0, rel_pos), arity);
    if (!lhs.ok()) return lhs.status();
    Result<LinearExpr> rhs = ParseSide(text.substr(rel_pos + rel.size()),
                                       arity);
    if (!rhs.ok()) return rhs.status();
    LinearExpr diff = *lhs - *rhs;  // lhs - rhs REL 0
    Relation relation = Relation::kGe;
    if (rel == "=") {
      relation = Relation::kEq;
    } else if (rel == "<=") {
      diff = -diff;
    } else if (rel == ">") {
      diff -= LinearExpr(Rational(1));  // strict over integer sizes
    } else if (rel == "<") {
      diff = -diff - LinearExpr(Rational(1));
    }
    out.AddConstraint(Constraint::FromExpr(diff, arity, relation));
  }
  return out;
}

const std::function<std::string(int)>& ArgSizeDb::ArgNamer() {
  static const std::function<std::string(int)> namer = [](int column) {
    return StrCat('a', column + 1);
  };
  return namer;
}

std::string ArgSizeDb::ToString(const Program& program) const {
  std::string out;
  for (const auto& [pred, polyhedron] : entries_) {
    out += StrCat(program.PredName(pred), ":\n");
    std::string body = polyhedron.ToString(&ArgNamer());
    for (const std::string& line : Split(body, '\n')) {
      if (!line.empty()) out += StrCat("  ", line, "\n");
    }
  }
  return out;
}

}  // namespace termilog
