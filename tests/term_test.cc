#include "term/term.h"

#include <gtest/gtest.h>

namespace termilog {
namespace {

class TermTest : public ::testing::Test {
 protected:
  SymbolTable symbols_;
};

TEST_F(TermTest, ConstantsAndCompounds) {
  int f = symbols_.Intern("f");
  int a = symbols_.Intern("a");
  TermPtr ca = Term::MakeConstant(a);
  EXPECT_TRUE(ca->IsConstant());
  EXPECT_TRUE(ca->IsGround());
  TermPtr t = Term::MakeCompound(f, {ca, Term::MakeVariable(0)});
  EXPECT_TRUE(t->IsCompound());
  EXPECT_FALSE(t->IsGround());
  EXPECT_EQ(t->arity(), 2);
  EXPECT_EQ(t->functor(), f);
}

TEST_F(TermTest, CollectVariablesAndMentions) {
  int f = symbols_.Intern("f");
  TermPtr t = Term::MakeCompound(
      f, {Term::MakeVariable(1),
          Term::MakeCompound(f, {Term::MakeVariable(3),
                                 Term::MakeVariable(1)})});
  std::set<int> vars;
  t->CollectVariables(&vars);
  EXPECT_EQ(vars, (std::set<int>{1, 3}));
  EXPECT_TRUE(t->Mentions(3));
  EXPECT_FALSE(t->Mentions(0));
}

TEST_F(TermTest, StructuralEquality) {
  int f = symbols_.Intern("f");
  int g = symbols_.Intern("g");
  TermPtr a = Term::MakeCompound(f, {Term::MakeVariable(0)});
  TermPtr b = Term::MakeCompound(f, {Term::MakeVariable(0)});
  TermPtr c = Term::MakeCompound(g, {Term::MakeVariable(0)});
  TermPtr d = Term::MakeCompound(f, {Term::MakeVariable(1)});
  EXPECT_TRUE(Term::Equal(a, b));
  EXPECT_FALSE(Term::Equal(a, c));
  EXPECT_FALSE(Term::Equal(a, d));
}

TEST_F(TermTest, ListSugarPrinting) {
  TermPtr a = Term::MakeConstant(symbols_.Intern("a"));
  TermPtr b = Term::MakeConstant(symbols_.Intern("b"));
  TermPtr list = MakeList(&symbols_, {a, b});
  EXPECT_EQ(list->ToString(symbols_), "[a,b]");
  TermPtr open = MakeList(&symbols_, {a}, Term::MakeVariable(0));
  EXPECT_EQ(open->ToString(symbols_), "[a|_G0]");
  TermPtr nil = Term::MakeConstant(symbols_.Intern(kNilName));
  EXPECT_EQ(nil->ToString(symbols_), "[]");
}

TEST_F(TermTest, ToStringWithNamer) {
  TermPtr t = Term::MakeCompound(symbols_.Intern("f"),
                                 {Term::MakeVariable(0)});
  std::vector<std::string> names = {"X"};
  EXPECT_EQ(t->ToString(symbols_, VarNamer{&names}), "f(X)");
  // Past the names, and with no names, the prefix and the index.
  TermPtr g = Term::MakeCompound(
      symbols_.Intern("g"), {Term::MakeVariable(0), Term::MakeVariable(3)});
  EXPECT_EQ(g->ToString(symbols_, VarNamer{&names}), "g(X,_G3)");
  EXPECT_EQ(g->ToString(symbols_, VarNamer{nullptr, "V"}), "g(V0,V3)");
}

}  // namespace
}  // namespace termilog
