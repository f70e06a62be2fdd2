#include "eval/join_plan.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "storage/database.h"

namespace seprec {
namespace {

// Compiles the single rule in `rule_text` against `db` and executes it into
// a fresh relation, whose sorted debug string is returned.
std::string RunRule(const std::string& rule_text, Database* db,
                    bool* overflow = nullptr) {
  Program p = ParseProgramOrDie(rule_text);
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], db);
  SEPREC_CHECK(plan.ok());
  Relation out("out", p.rules[0].head.arity());
  plan->ExecuteInto(&out, overflow);
  return out.DebugString(db->symbols());
}

TEST(JoinPlan, SingleAtomCopy) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"b", "c"}).ok());
  EXPECT_EQ(RunRule("h(X, Y) :- e(X, Y).", &db), "out(a, b)\nout(b, c)\n");
}

TEST(JoinPlan, Projection) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "c"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, Y).", &db), "out(a)\n");
}

TEST(JoinPlan, TwoWayJoin) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "d"}).ok());
  EXPECT_EQ(RunRule("h(X, Z) :- e(X, Y), e(Y, Z).", &db),
            "out(a, c)\nout(b, d)\n");
}

TEST(JoinPlan, ConstantInBody) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "d"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, b).", &db), "out(a)\nout(c)\n");
}

TEST(JoinPlan, ConstantInHead) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(RunRule("h(marked, X) :- e(X, Y).", &db), "out(marked, a)\n");
}

TEST(JoinPlan, RepeatedVariableInAtom) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "a"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, X).", &db), "out(a)\n");
}

// The self loop's symbol is interned after another one, so a plan that
// looked the repeated variable up before binding it would miss the row.
TEST(JoinPlan, RepeatedVariableInAtomWhateverTheInternOrder) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "c"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, X).", &db), "out(c)\n");
  EXPECT_EQ(RunRule("h(X, Y) :- e(X, X), e(Y, Y).", &db), "out(c, c)\n");
}

// No self loop: a row whose second column equals some other binding must
// not pass for one.
TEST(JoinPlan, RepeatedVariableInAtomWithoutSelfLoop) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "c"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"b", "a"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, X).", &db), "");
  EXPECT_EQ(RunRule("h(Y) :- e(X, Y), e(Y, Y).", &db), "");
}

TEST(JoinPlan, RepeatedVariableInHead) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(RunRule("h(X, X) :- e(X, Y).", &db), "out(a, a)\n");
}

TEST(JoinPlan, FactRule) {
  Database db;
  EXPECT_EQ(RunRule("h(a, 3).", &db), "out(a, 3)\n");
}

TEST(JoinPlan, EqualityBindsVariable) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(RunRule("h(X, Z) :- e(X, Y), Z = Y.", &db), "out(a, b)\n");
  EXPECT_EQ(RunRule("h(X, Z) :- Z = fixed, e(X, Y).", &db),
            "out(a, fixed)\n");
}

TEST(JoinPlan, EqualityFilters) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "a"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(RunRule("h(X, Y) :- e(X, Y), X = Y.", &db), "out(a, a)\n");
}

TEST(JoinPlan, ComparisonsOnInts) {
  Database db;
  Relation* rel = *db.CreateRelation("n", 1);
  for (int i = 0; i < 6; ++i) rel->Insert({Value::Int(i)});
  EXPECT_EQ(RunRule("h(X) :- n(X), X < 2.", &db), "out(0)\nout(1)\n");
  EXPECT_EQ(RunRule("h(X) :- n(X), X >= 4.", &db), "out(4)\nout(5)\n");
  EXPECT_EQ(RunRule("h(X) :- n(X), X != 0, X <= 1.", &db), "out(1)\n");
}

TEST(JoinPlan, OrderingComparisonOnSymbolsFails) {
  Database db;
  ASSERT_TRUE(db.AddFact("s", {"a"}).ok());
  // '<' is defined only on integers: no rows, no crash.
  EXPECT_EQ(RunRule("h(X) :- s(X), X < 5.", &db), "");
}

TEST(JoinPlan, Arithmetic) {
  Database db;
  Relation* rel = *db.CreateRelation("n", 1);
  rel->Insert({Value::Int(5)});
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is X * 2 + 1.", &db), "out(11)\n");
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is (X + 1) * (X - 1).", &db),
            "out(24)\n");
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is X mod 3.", &db), "out(2)\n");
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is X / 2.", &db), "out(2)\n");
}

TEST(JoinPlan, AssignAsCheck) {
  Database db;
  Relation* rel = *db.CreateRelation("pair", 2);
  rel->Insert({Value::Int(2), Value::Int(4)});
  rel->Insert({Value::Int(3), Value::Int(5)});
  // Y is X*2 acts as a filter when Y is already bound.
  EXPECT_EQ(RunRule("h(X) :- pair(X, Y), Y is X * 2.", &db), "out(2)\n");
}

TEST(JoinPlan, DivisionByZeroDropsDerivation) {
  Database db;
  Relation* rel = *db.CreateRelation("n", 1);
  rel->Insert({Value::Int(0)});
  rel->Insert({Value::Int(2)});
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is 4 / X.", &db), "out(2)\n");
}

TEST(JoinPlan, OverflowSetsFlagAndDropsRow) {
  Database db;
  Relation* rel = *db.CreateRelation("n", 1);
  rel->Insert({Value::Int(Value::kMaxInt)});
  bool overflow = false;
  EXPECT_EQ(RunRule("h(Z) :- n(X), Z is X * 2.", &db, &overflow), "");
  EXPECT_TRUE(overflow);
}

TEST(JoinPlan, ArithmeticOnSymbolDropsRow) {
  Database db;
  ASSERT_TRUE(db.AddFact("s", {"a"}).ok());
  bool overflow = false;
  EXPECT_EQ(RunRule("h(Z) :- s(X), Z is X + 1.", &db, &overflow), "");
  EXPECT_FALSE(overflow);  // type error, not overflow
}

TEST(JoinPlan, RelationOverride) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("delta_e", {"x", "y"}).ok());
  Program p = ParseProgramOrDie("h(X, Y) :- e(X, Y).");
  PlanOptions options;
  options.relation_overrides[0] = "delta_e";
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], &db, options);
  ASSERT_TRUE(plan.ok());
  Relation out("out", 2);
  plan->ExecuteInto(&out);
  EXPECT_EQ(out.DebugString(db.symbols()), "out(x, y)\n");
}

TEST(JoinPlan, MissingRelationTreatedAsEmpty) {
  Database db;
  EXPECT_EQ(RunRule("h(X) :- never_mentioned(X).", &db), "");
  EXPECT_NE(db.Find("never_mentioned"), nullptr);
}

TEST(JoinPlan, UnsafeRuleRejected) {
  Database db;
  Program p = ParseProgramOrDie("h(X, Y) :- e(X, Z).");
  EXPECT_FALSE(RulePlan::Compile(p.rules[0], &db).ok());
  Program p2 = ParseProgramOrDie("h(X) :- e(X), X < Y.");
  EXPECT_FALSE(RulePlan::Compile(p2.rules[0], &db).ok());
}

TEST(JoinPlan, CountDerivationsCountsDuplicates) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "c"}).ok());
  Program p = ParseProgramOrDie("h(X) :- e(X, Y).");
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], &db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountDerivations(), 2u);  // both rows, same head value
}

TEST(JoinPlan, SelfJoinTriangle) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "a"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "d"}).ok());
  EXPECT_EQ(RunRule("h(X) :- e(X, Y), e(Y, Z), e(Z, X).", &db),
            "out(a)\nout(b)\nout(c)\n");
}

TEST(JoinPlan, DebugStringMentionsSteps) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  Program p = ParseProgramOrDie("h(X) :- e(X, Y), Y = b, Z is 1 + 2.");
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], &db);
  ASSERT_TRUE(plan.ok());
  std::string s = plan->DebugString();
  EXPECT_NE(s.find("scan e"), std::string::npos);
  EXPECT_NE(s.find("emit head"), std::string::npos);
}

TEST(JoinPlan, OutputMustNotAliasScannedRelation) {
  Database db;
  Relation* e = *db.CreateRelation("e", 2);
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  Program p = ParseProgramOrDie("e(X, Y) :- e(Y, X).");
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], &db);
  ASSERT_TRUE(plan.ok());
  EXPECT_DEATH(plan->ExecuteInto(e), "");
}

}  // namespace
}  // namespace seprec
