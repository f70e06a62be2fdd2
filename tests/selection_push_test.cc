#include "eval/selection_push.h"

#include <gtest/gtest.h>

#include "core/query.h"
#include "datalog/parser.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "separable/engine.h"

namespace seprec {
namespace {

Answer ReferenceAnswer(const Program& program, const Atom& query,
                       Database* db) {
  Status status = EvaluateSemiNaive(program, db);
  SEPREC_CHECK(status.ok());
  const Relation* rel = db->Find(query.predicate);
  SEPREC_CHECK(rel != nullptr);
  return SelectMatching(*rel, query, db->symbols());
}

TEST(StablePositions, Example11) {
  // Column 1 (the product) is persistent -> stable; column 0 changes.
  auto stable = StablePositions(Example11Program(), "buys");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable, (std::vector<uint32_t>{1}));
}

TEST(StablePositions, Example12HasNone) {
  auto stable = StablePositions(Example12Program(), "buys");
  ASSERT_TRUE(stable.ok());
  EXPECT_TRUE(stable->empty());
}

TEST(StablePositions, MultipleStableColumns) {
  Program p = ParseProgramOrDie(
      "t(A, B, C) :- e(A, W) & t(W, B, C).\n"
      "t(A, B, C) :- t0(A, B, C).");
  auto stable = StablePositions(p, "t");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable, (std::vector<uint32_t>{1, 2}));
}

TEST(SelectionPush, AgreesWithSemiNaiveOnStableSelection) {
  Database db1, db2;
  MakeExample11Data(&db1, 10);
  MakeExample11Data(&db2, 10);
  Atom query = ParseAtomOrDie("buys(X, b)");
  auto run = EvaluateWithSelectionPush(Example11Program(), query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer, ReferenceAnswer(Example11Program(), query, &db2));
  EXPECT_EQ(run->answer.size(), 10u);
}

TEST(SelectionPush, AgreesWithSeparableDummyClassPath) {
  // On separable recursions, stable columns are t|pers: AU79 pushing and
  // the Separable algorithm's dummy-class case coincide (the related-work
  // comparison in Section 1).
  Database db1, db2;
  MakeExample11Data(&db1, 12);
  MakeExample11Data(&db2, 12);
  Atom query = ParseAtomOrDie("buys(X, b)");
  auto push = EvaluateWithSelectionPush(Example11Program(), query, &db1);
  auto sep = EvaluateWithSeparable(Example11Program(), query, &db2);
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(sep.ok());
  EXPECT_EQ(push->answer, sep->answer);
}

TEST(SelectionPush, RejectsNonStableSelection) {
  Database db;
  MakeExample11Data(&db, 5);
  auto run = EvaluateWithSelectionPush(Example11Program(),
                                       ParseAtomOrDie("buys(a0, Y)"), &db);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SelectionPush, RejectsUnboundQuery) {
  Database db;
  auto run = EvaluateWithSelectionPush(Example11Program(),
                                       ParseAtomOrDie("buys(X, Y)"), &db);
  EXPECT_FALSE(run.ok());
}

TEST(SelectionPush, SpecializedProgramIsExposed) {
  Database db;
  MakeExample11Data(&db, 5);
  auto run = EvaluateWithSelectionPush(Example11Program(),
                                       ParseAtomOrDie("buys(X, b)"), &db);
  ASSERT_TRUE(run.ok());
  const std::string text = run->specialized.ToString();
  EXPECT_NE(text.find("pushed_buys"), std::string::npos) << text;
  EXPECT_NE(text.find("b)"), std::string::npos) << text;
}

TEST(SelectionPush, LeavesAssignedHeadVariableGeneral) {
  // The query binds Y, the target of `Y is Z + 1`: that rule stays
  // general and the final selection filters its output.
  Program p = ParseProgramOrDie(
      "p(a, 1).\n"
      "p(b, 4).\n"
      "t(X, Y) :- p(X, Z) & Y is Z + 1.\n");
  Database db;
  auto run = EvaluateWithSelectionPush(p, ParseAtomOrDie("t(X, 5)"), &db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer.ToStrings(db.symbols()),
            (std::vector<std::string>{"(b, 5)"}));
}

TEST(SelectionPush, WorksThroughSupportIdb) {
  Program p = ParseProgramOrDie(
      "e(X, Y) :- raw(X, Y).\n"
      "t(A, B) :- e(A, W) & t(W, B).\n"
      "t(A, B) :- t0(A, B).");
  Database db1, db2;
  for (Database* db : {&db1, &db2}) {
    MakeChain(db, "raw", "v", 5);
    MakeFact(db, "t0", {"v4", "prize"});
  }
  Atom query = ParseAtomOrDie("t(X, prize)");
  auto run = EvaluateWithSelectionPush(p, query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer, ReferenceAnswer(p, query, &db2));
  EXPECT_EQ(run->answer.size(), 5u);
}

TEST(SelectionPush, NonStableApplicableOnNonSeparableProgram) {
  // AU79 applies to some non-separable recursions (incommensurate
  // classes): same-generation's columns are both unstable, but a variant
  // with a persistent tag column is non-separable (condition 4) yet has a
  // stable column AU79 can exploit.
  Program p = ParseProgramOrDie(
      "t(X, Y, Tag) :- up(X, U) & t(U, V, Tag) & down(V, Y).\n"
      "t(X, Y, Tag) :- flat(X, Y) & tag(Tag).");
  auto stable = StablePositions(p, "t");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable, (std::vector<uint32_t>{2}));

  Database db1, db2;
  for (Database* db : {&db1, &db2}) {
    MakeSameGenerationData(db, 2, 3);
    MakeFact(db, "tag", {"red"});
    MakeFact(db, "tag", {"blue"});
  }
  Atom query = ParseAtomOrDie("t(X, Y, red)");
  auto run = EvaluateWithSelectionPush(p, query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer, ReferenceAnswer(p, query, &db2));
  EXPECT_FALSE(run->answer.empty());
}

}  // namespace
}  // namespace seprec
