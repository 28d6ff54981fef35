#include "term/term.h"

#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace termilog {

TermPtr Term::MakeVariable(int var_id) {
  TERMILOG_CHECK(var_id >= 0);
  return TermPtr(new Term(Kind::kVariable, var_id, {}));
}

TermPtr Term::MakeCompound(int functor, std::vector<TermPtr> args) {
  TERMILOG_CHECK(functor >= 0);
  for (const TermPtr& arg : args) TERMILOG_CHECK(arg != nullptr);
  return TermPtr(new Term(Kind::kCompound, functor, std::move(args)));
}

TermPtr Term::MakeConstant(int functor) { return MakeCompound(functor, {}); }

int Term::var_id() const {
  TERMILOG_CHECK(IsVariable());
  return id_;
}

int Term::functor() const {
  TERMILOG_CHECK(IsCompound());
  return id_;
}

bool Term::IsGround() const {
  if (IsVariable()) return false;
  for (const TermPtr& arg : args_) {
    if (!arg->IsGround()) return false;
  }
  return true;
}

void Term::CollectVariables(std::set<int>* out) const {
  if (IsVariable()) {
    out->insert(id_);
    return;
  }
  for (const TermPtr& arg : args_) arg->CollectVariables(out);
}

bool Term::Mentions(int var_id) const {
  if (IsVariable()) return id_ == var_id;
  for (const TermPtr& arg : args_) {
    if (arg->Mentions(var_id)) return true;
  }
  return false;
}

bool Term::Equal(const TermPtr& a, const TermPtr& b) {
  if (a.get() == b.get()) return true;
  if (a->kind_ != b->kind_ || a->id_ != b->id_) return false;
  if (a->args_.size() != b->args_.size()) return false;
  for (size_t i = 0; i < a->args_.size(); ++i) {
    if (!Equal(a->args_[i], b->args_[i])) return false;
  }
  return true;
}

void VarNamer::AppendName(int v, std::string* out) const {
  if (names != nullptr && v >= 0 && v < static_cast<int>(names->size())) {
    *out += (*names)[v];
  } else {
    StrAppend(out, prefix, v);
  }
}

void Term::AppendTo(std::string* out, const SymbolTable& symbols,
                    const VarNamer& namer) const {
  if (IsVariable()) {
    namer.AppendName(id_, out);
    return;
  }
  const std::string& name = symbols.Name(id_);
  // List sugar for cons cells.
  if (name == kConsName && args_.size() == 2) {
    out->push_back('[');
    const Term* node = this;
    while (true) {
      node->args_[0]->AppendTo(out, symbols, namer);
      const TermPtr& tail = node->args_[1];
      if (tail->IsCompound() && tail->args().size() == 2 &&
          symbols.Name(tail->functor()) == kConsName) {
        out->push_back(',');
        node = tail.get();
        continue;
      }
      if (tail->IsConstant() && symbols.Name(tail->functor()) == kNilName) {
        out->push_back(']');
        return;
      }
      out->push_back('|');
      tail->AppendTo(out, symbols, namer);
      out->push_back(']');
      return;
    }
  }
  AppendApplication(out, name, args_, symbols, namer);
}

std::string Term::ToString(const SymbolTable& symbols,
                           const VarNamer& namer) const {
  std::string out;
  AppendTo(&out, symbols, namer);
  return out;
}

void AppendApplication(std::string* out, const std::string& name,
                       const std::vector<TermPtr>& args,
                       const SymbolTable& symbols, const VarNamer& namer) {
  *out += name;
  if (args.empty()) return;
  out->push_back('(');
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out->push_back(',');
    args[i]->AppendTo(out, symbols, namer);
  }
  out->push_back(')');
}

TermPtr MakeList(SymbolTable* symbols, const std::vector<TermPtr>& items,
                 TermPtr tail) {
  int cons = symbols->Intern(kConsName);
  TermPtr list =
      tail ? std::move(tail) : Term::MakeConstant(symbols->Intern(kNilName));
  for (size_t i = items.size(); i-- > 0;) {
    list = Term::MakeCompound(cons, {items[i], list});
  }
  return list;
}

}  // namespace termilog
