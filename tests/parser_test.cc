#include "datalog/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "datalog/diagnostics.h"

namespace seprec {
namespace {

TEST(Parser, FactAndRule) {
  auto unit = ParseUnit("edge(a, b).\ntc(X, Y) :- edge(X, Y).");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  ASSERT_EQ(unit->program.rules.size(), 2u);
  const Rule& fact = unit->program.rules[0];
  EXPECT_EQ(fact.head.predicate, "edge");
  EXPECT_TRUE(fact.body.empty());
  EXPECT_TRUE(fact.head.IsGround());
  const Rule& rule = unit->program.rules[1];
  EXPECT_EQ(rule.head.predicate, "tc");
  ASSERT_EQ(rule.body.size(), 1u);
  EXPECT_EQ(rule.body[0].atom.predicate, "edge");
}

TEST(Parser, PaperAmpersandBodies) {
  Program p = ParseProgramOrDie(
      "buys(X, Y) :- friend(X, W) & buys(W, Y).");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].body.size(), 2u);
}

TEST(Parser, QueriesBothSyntaxes) {
  auto unit = ParseUnit("?- buys(tom, Y).\nbuys(tom, Z)?");
  ASSERT_TRUE(unit.ok());
  ASSERT_EQ(unit->queries.size(), 2u);
  EXPECT_EQ(unit->queries[0].ToString(), "buys(tom, Y)");
  EXPECT_EQ(unit->queries[1].ToString(), "buys(tom, Z)");
}

TEST(Parser, QuestionMarkWithTrailingPeriod) {
  auto unit = ParseUnit("buys(tom, Y)? .");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->queries.size(), 1u);
}

TEST(Parser, TermKinds) {
  Atom atom = ParseAtomOrDie("p(X, tom, 42, -3, 'Big Name')");
  ASSERT_EQ(atom.arity(), 5u);
  EXPECT_EQ(atom.args[0].kind, Term::Kind::kVariable);
  EXPECT_EQ(atom.args[1].kind, Term::Kind::kSymbol);
  EXPECT_EQ(atom.args[2].kind, Term::Kind::kInt);
  EXPECT_EQ(atom.args[2].int_value, 42);
  EXPECT_EQ(atom.args[3].int_value, -3);
  EXPECT_EQ(atom.args[4].name, "Big Name");
}

TEST(Parser, PropositionalAtom) {
  Program p = ParseProgramOrDie("raining.\nwet :- raining.");
  EXPECT_EQ(p.rules[0].head.arity(), 0u);
  EXPECT_EQ(p.rules[1].body[0].atom.predicate, "raining");
}

TEST(Parser, ComparisonLiterals) {
  Program p = ParseProgramOrDie("p(X, Y) :- q(X, Y), X != Y, X < 10.");
  ASSERT_EQ(p.rules[0].body.size(), 3u);
  const Literal& ne = p.rules[0].body[1];
  EXPECT_EQ(ne.kind, Literal::Kind::kCompare);
  EXPECT_EQ(ne.cmp_op, CmpOp::kNe);
  const Literal& lt = p.rules[0].body[2];
  EXPECT_EQ(lt.cmp_op, CmpOp::kLt);
  EXPECT_EQ(lt.cmp_rhs.int_value, 10);
}

TEST(Parser, EqualityBetweenConstantsAndVars) {
  Program p = ParseProgramOrDie("p(X) :- q(X, Y), Y = tom.");
  const Literal& eq = p.rules[0].body[1];
  EXPECT_EQ(eq.kind, Literal::Kind::kCompare);
  EXPECT_EQ(eq.cmp_op, CmpOp::kEq);
  EXPECT_EQ(eq.cmp_rhs.name, "tom");
}

TEST(Parser, AssignmentWithPrecedence) {
  Program p = ParseProgramOrDie("p(Z) :- q(X), Z is X * 2 + 1.");
  const Literal& assign = p.rules[0].body[1];
  ASSERT_EQ(assign.kind, Literal::Kind::kAssign);
  EXPECT_EQ(assign.assign_var, "Z");
  // Z is (X*2) + 1 — '+' at the root.
  EXPECT_EQ(assign.expr.op, Expr::Op::kAdd);
  EXPECT_EQ(assign.expr.lhs->op, Expr::Op::kMul);
}

TEST(Parser, ParenthesizedExpressions) {
  Program p = ParseProgramOrDie("p(Z) :- q(X), Z is X * (2 + 1).");
  const Literal& assign = p.rules[0].body[1];
  EXPECT_EQ(assign.expr.op, Expr::Op::kMul);
  EXPECT_EQ(assign.expr.rhs->op, Expr::Op::kAdd);
}

TEST(Parser, ModOperator) {
  Program p = ParseProgramOrDie("p(Z) :- q(X), Z is X mod 3.");
  EXPECT_EQ(p.rules[0].body[1].expr.op, Expr::Op::kMod);
}

TEST(Parser, ErrorMissingPeriod) {
  EXPECT_FALSE(ParseProgram("p(X) :- q(X)").ok());
}

TEST(Parser, ErrorDanglingComma) {
  EXPECT_FALSE(ParseProgram("p(X) :- q(X), .").ok());
}

TEST(Parser, ErrorEmptyArgList) {
  EXPECT_FALSE(ParseProgram("p() :- q(X).").ok());
}

TEST(Parser, ErrorQueryInProgramText) {
  EXPECT_FALSE(ParseProgram("p(a).\n?- p(X).").ok());
}

TEST(Parser, ParseAtomRejectsRule) {
  EXPECT_FALSE(ParseAtom("p(X) :- q(X)").ok());
}

TEST(Parser, ErrorsCarryLineAndColumn) {
  auto bad = ParseProgram("p(a).\nq(X :- r(X).");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2, col 5"), std::string::npos)
      << bad.status().message();
}

// `levels` nested parentheses around 1, or a chain of `levels` additions.
std::string NestedAssignment(int levels) {
  return "t(X, Y) :- p(X) & Y is " + std::string(levels, '(') + "1" +
         std::string(levels, ')') + ".";
}
std::string ChainedAssignment(int levels) {
  std::string text = "t(X, Y) :- p(X) & Y is 1";
  for (int i = 0; i < levels; ++i) text += " + 1";
  return text + ".";
}

TEST(Parser, DeepExpressionsAreAParseError) {
  // Both shapes once crashed the parser or a later pass by recursing once
  // per level; now they are refused with a structured P001 error.
  for (const std::string& text :
       {NestedAssignment(5000), ChainedAssignment(20000)}) {
    DiagnosticSink sink;
    auto unit = ParseUnit(text, &sink);
    ASSERT_FALSE(unit.ok());
    EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(unit.status().message().find("nested deeper than 256"),
              std::string::npos)
        << unit.status().message();
    ASSERT_EQ(sink.diagnostics().size(), 1u);
    EXPECT_EQ(sink.diagnostics()[0].code, "P001");
    EXPECT_EQ(sink.diagnostics()[0].span.line, 1);
  }
  // Depth 256 is the bound: a leaf is 1, each level adds one.
  EXPECT_TRUE(ParseUnit(NestedAssignment(255)).ok());
  EXPECT_TRUE(ParseUnit(ChainedAssignment(255)).ok());
  EXPECT_FALSE(ParseUnit(NestedAssignment(256)).ok());
  EXPECT_FALSE(ParseUnit(ChainedAssignment(256)).ok());
}

TEST(Parser, AstCarriesSourceSpans) {
  auto unit = ParseUnit("p(a).\n  tc(X, Y) :- e(X, Z), not bad(Z), tc(Z, Y).");
  ASSERT_TRUE(unit.ok());
  const Rule& rule = unit->program.rules[1];
  EXPECT_EQ(rule.span.line, 2);
  EXPECT_EQ(rule.span.col, 3);
  EXPECT_EQ(rule.span.end_col, 45);  // one past the final '.'
  EXPECT_EQ(rule.head.span.col, 3);
  EXPECT_EQ(rule.head.span.end_col, 11);  // one past "tc(X, Y)"
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(rule.body[0].span.col, 15);            // e(X, Z)
  EXPECT_EQ(rule.body[1].span.col, 24);            // spans the 'not'
  EXPECT_EQ(rule.body[1].atom.span.col, 28);       // bad(Z) itself
  EXPECT_EQ(rule.body[2].span.col, 36);            // tc(Z, Y)
}

TEST(Parser, ToStringRoundTrip) {
  const std::string text =
      "buys(X, Y) :- friend(X, W), buys(W, Y).\n"
      "t(X) :- a(X, Y), Y != b, X < 3, Z is X + 1, p(Z).\n";
  Program p1 = ParseProgramOrDie(text);
  Program p2 = ParseProgramOrDie(p1.ToString());
  EXPECT_EQ(p1.ToString(), p2.ToString());
}

TEST(Parser, RulesForFindsByPredicate) {
  Program p = ParseProgramOrDie("p(a).\nq(b).\np(X) :- q(X).");
  EXPECT_EQ(p.RulesFor("p").size(), 2u);
  EXPECT_EQ(p.RulesFor("q").size(), 1u);
  EXPECT_TRUE(p.RulesFor("r").empty());
}

}  // namespace
}  // namespace seprec
