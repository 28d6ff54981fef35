#include "program/parser.h"

#include <gtest/gtest.h>

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

TEST(ParserTest, FactAndRule) {
  Program p = MustParse("p(a). q(X) :- p(X).");
  ASSERT_EQ(p.rules().size(), 2u);
  EXPECT_TRUE(p.rules()[0].body.empty());
  EXPECT_EQ(p.rules()[1].body.size(), 1u);
  EXPECT_EQ(p.rules()[1].ToString(p.symbols()), "q(X) :- p(X).");
}

TEST(ParserTest, VariablesScopePerClause) {
  Program p = MustParse("p(X) :- q(X). r(X).");
  EXPECT_EQ(p.rules()[0].num_vars(), 1);
  EXPECT_EQ(p.rules()[1].num_vars(), 1);
}

TEST(ParserTest, AnonymousVariablesAreFresh) {
  Program p = MustParse("p(_, _).");
  EXPECT_EQ(p.rules()[0].num_vars(), 2);
}

TEST(ParserTest, ListsDesugarToCons) {
  Program p = MustParse("p([a,b|T]).");
  const TermPtr& arg = p.rules()[0].head.args[0];
  ASSERT_TRUE(arg->IsCompound());
  EXPECT_EQ(p.symbols().Name(arg->functor()), kConsName);
  EXPECT_EQ(arg->ToString(p.symbols(), VarNamer{&p.rules()[0].var_names}),
            "[a,b|T]");
}

TEST(ParserTest, EmptyListConstant) {
  Program p = MustParse("p([]).");
  EXPECT_TRUE(p.rules()[0].head.args[0]->IsConstant());
}

TEST(ParserTest, QuotedAtoms) {
  Program p = MustParse("t(L, ['+'|C]).");
  EXPECT_EQ(p.rules()[0].head.args[1]->args()[0]->IsConstant(), true);
  EXPECT_EQ(p.symbols().Name(
                p.rules()[0].head.args[1]->args()[0]->functor()),
            "+");
}

TEST(ParserTest, ComparisonOperatorsAsGoals) {
  Program p = MustParse("m(X,Y) :- X =< Y, m(Y, X).");
  ASSERT_EQ(p.rules()[0].body.size(), 2u);
  EXPECT_EQ(p.symbols().Name(p.rules()[0].body[0].atom.predicate), "=<");
  EXPECT_EQ(p.rules()[0].body[0].atom.args.size(), 2u);
}

TEST(ParserTest, EqualityGoal) {
  Program p = MustParse("r(Z) :- U = f(Z), p(U).");
  EXPECT_EQ(p.symbols().Name(p.rules()[0].body[0].atom.predicate), "=");
}

TEST(ParserTest, NegatedSubgoal) {
  Program p = MustParse("f(X) :- \\+ bad(X), g(X).");
  EXPECT_FALSE(p.rules()[0].body[0].positive);
  EXPECT_TRUE(p.rules()[0].body[1].positive);
}

TEST(ParserTest, ZeroArityPredicates) {
  Program p = MustParse("p :- p.");
  EXPECT_EQ(p.rules()[0].head.args.size(), 0u);
  EXPECT_EQ(p.rules()[0].body[0].atom.args.size(), 0u);
}

TEST(ParserTest, IntegersAreConstants) {
  Program p = MustParse("age(42).");
  EXPECT_TRUE(p.rules()[0].head.args[0]->IsConstant());
  EXPECT_EQ(p.symbols().Name(p.rules()[0].head.args[0]->functor()), "42");
}

TEST(ParserTest, Comments) {
  Program p = MustParse(R"(
    % line comment
    p(a). /* block
             comment */ q(b).
  )");
  EXPECT_EQ(p.rules().size(), 2u);
}

TEST(ParserTest, ModeDirective) {
  Program p = MustParse(":- mode(append(b, f, f)). append([],Y,Y).");
  ASSERT_EQ(p.mode_decls().size(), 1u);
  EXPECT_EQ(p.mode_decls()[0].pred.arity, 3);
  EXPECT_EQ(AdornmentToString(p.mode_decls()[0].adornment), "bff");
}

TEST(ParserTest, UnknownDirectiveWarns) {
  std::vector<std::string> warnings;
  Result<Program> p = ParseProgram(":- dynamic(foo). p(a).", &warnings);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(warnings.size(), 1u);
}

TEST(ParserTest, ErrorsCarryPosition) {
  Result<Program> p = ParseProgram("p(a)");  // missing dot
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, ErrorOnBareVariableGoal) {
  EXPECT_FALSE(ParseProgram("p(a) :- X.").ok());
}

TEST(ParserTest, ErrorOnUnterminatedQuote) {
  EXPECT_FALSE(ParseProgram("p('abc).").ok());
}

TEST(ParserTest, ErrorOnUnterminatedBlockComment) {
  EXPECT_FALSE(ParseProgram("/* p(a).").ok());
}

TEST(ParserTest, ParseTermHelper) {
  SymbolTable symbols;
  std::vector<std::string> names;
  Result<TermPtr> t = ParseTerm("f(X, [Y|X])", &symbols, &names);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ((*t)->arity(), 2);
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* source =
      "perm(P,[X|L]) :- append(E,[X|F],P), append(E,F,P1), perm(P1,L).";
  Program p1 = MustParse(source);
  std::string printed = p1.rules()[0].ToString(p1.symbols());
  Program p2 = MustParse(printed);
  EXPECT_EQ(p2.rules()[0].ToString(p2.symbols()), printed);
}

TEST(ParserTest, ConsInPrefixForm) {
  Program p = MustParse("p('.'(H, T)) :- q(H, T).");
  const TermPtr& arg = p.rules()[0].head.args[0];
  EXPECT_EQ(p.symbols().Name(arg->functor()), kConsName);
  EXPECT_EQ(arg->arity(), 2);
}

}  // namespace
}  // namespace termilog
