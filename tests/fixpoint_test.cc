#include "eval/fixpoint.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "gen/generators.h"
#include "gen/workloads.h"

namespace seprec {
namespace {

size_t TcSizeOfChain(size_t n) { return n * (n - 1) / 2; }

TEST(SemiNaive, TransitiveClosureOnChain) {
  Database db;
  MakeChain(&db, "edge", "v", 6);
  EvalStats stats;
  Status status =
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const Relation* tc = db.Find("tc");
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->size(), TcSizeOfChain(6));
  EXPECT_EQ(stats.relation_sizes.at("tc"), TcSizeOfChain(6));
  EXPECT_GE(stats.iterations, 5u);
}

TEST(SemiNaive, TransitiveClosureOnCycleTerminates) {
  Database db;
  MakeCycle(&db, "edge", "v", 5);
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats).ok());
  // On a cycle every pair is reachable.
  EXPECT_EQ(db.Find("tc")->size(), 25u);
}

TEST(Naive, AgreesWithSemiNaive) {
  for (size_t n : {2u, 3u, 5u, 9u}) {
    Database db1;
    Database db2;
    MakeChain(&db1, "edge", "v", n);
    MakeChain(&db2, "edge", "v", n);
    ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db1).ok());
    ASSERT_TRUE(EvaluateNaive(TransitiveClosureProgram(), &db2).ok());
    EXPECT_EQ(db1.Find("tc")->DebugString(db1.symbols()),
              db2.Find("tc")->DebugString(db2.symbols()));
  }
}

TEST(SemiNaive, FactsAndDerivedFacts) {
  Program p = ParseProgramOrDie(
      "parent(ann, bob).\n"
      "parent(bob, cal).\n"
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, W), anc(W, Y).");
  Database db;
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  EXPECT_EQ(db.Find("anc")->size(), 3u);
  EXPECT_EQ(db.Find("parent")->size(), 2u);
}

TEST(SemiNaive, MultipleStrata) {
  Program p = ParseProgramOrDie(
      "link(a, b). link(b, c). link(c, d).\n"
      "reach(X, Y) :- link(X, Y).\n"
      "reach(X, Y) :- link(X, W), reach(W, Y).\n"
      "biconn(X, Y) :- reach(X, Y), reach(Y, X).\n"
      "interesting(X) :- biconn(X, X).");
  Database db;
  EvalStats stats;
  ASSERT_TRUE(EvaluateSemiNaive(p, &db, {}, &stats).ok());
  EXPECT_EQ(db.Find("reach")->size(), 6u);
  EXPECT_EQ(db.Find("biconn")->size(), 0u);
  EXPECT_EQ(db.Find("interesting")->size(), 0u);
}

TEST(SemiNaive, MutuallyRecursivePredicates) {
  Program p = ParseProgramOrDie(
      "zero(0).\n"
      "succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).\n"
      "even(X) :- zero(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).");
  Database db;
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  EXPECT_EQ(db.Find("even")->DebugString(db.symbols()),
            "even(0)\neven(2)\neven(4)\n");
  EXPECT_EQ(db.Find("odd")->DebugString(db.symbols()), "odd(1)\nodd(3)\n");
}

TEST(SemiNaive, ArithmeticCountdown) {
  Program p = ParseProgramOrDie(
      "n(10).\n"
      "n(Y) :- n(X), X > 0, Y is X - 1.");
  Database db;
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  EXPECT_EQ(db.Find("n")->size(), 11u);
}

TEST(SemiNaive, MaxIterationsBudget) {
  Program p = ParseProgramOrDie(
      "n(0).\n"
      "n(Y) :- n(X), Y is X + 1.");  // diverges
  Database db;
  FixpointOptions options;
  options.limits.max_iterations = 50;
  EvalStats stats;
  Status status = EvaluateSemiNaive(p, &db, options, &stats);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Partial results still materialised and reported.
  EXPECT_GE(db.Find("n")->size(), 50u);
  EXPECT_GE(stats.relation_sizes.at("n"), 50u);
}

TEST(SemiNaive, MaxTuplesBudget) {
  Program p = ParseProgramOrDie(
      "n(0).\n"
      "n(Y) :- n(X), Y is X + 1.");
  Database db;
  FixpointOptions options;
  options.limits.max_tuples = 100;
  Status status = EvaluateSemiNaive(p, &db, options);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(SemiNaive, OverflowSurfacesAsOutOfRange) {
  Program p = ParseProgramOrDie(
      "n(1).\n"
      "n(Y) :- n(X), X < 2305843009213693951, Y is X * 2.");
  Database db;
  Status status = EvaluateSemiNaive(p, &db);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(SemiNaive, EmptyEdbGivesEmptyIdb) {
  Database db;
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats).ok());
  EXPECT_EQ(db.Find("tc")->size(), 0u);
}

TEST(SemiNaive, DeltaRelationsAreDropped) {
  Database db;
  MakeChain(&db, "edge", "v", 4);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db).ok());
  for (const std::string& name : db.RelationNames()) {
    EXPECT_EQ(name.find("$delta"), std::string::npos) << name;
  }
}

TEST(SemiNaive, DeltaRelationsAreDroppedWhenAStratumFails) {
  // q's stratum fails to prepare (q already exists with arity 3) after the
  // strata of p and r created their deltas.
  Program p = ParseProgramOrDie(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- e(X, Z), p(Z, Y).\n"
      "r(X, Y) :- p(X, Y).\n"
      "q(X, Y) :- r(X, Y).");
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("q", {"a", "b", "c"}).ok());
  Status status = EvaluateSemiNaive(p, &db);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "relation 'q' already exists with arity 3, requested 2");
  for (const std::string& name : db.RelationNames()) {
    EXPECT_NE(name.front(), '$') << name;
  }
}

TEST(SemiNaive, NonRecursiveIdbEvaluatedOnce) {
  Program p = ParseProgramOrDie(
      "e(a, b). e(b, c).\n"
      "two_hop(X, Z) :- e(X, Y), e(Y, Z).");
  Database db;
  EvalStats stats;
  ASSERT_TRUE(EvaluateSemiNaive(p, &db, {}, &stats).ok());
  EXPECT_EQ(db.Find("two_hop")->DebugString(db.symbols()),
            "two_hop(a, c)\n");
}

TEST(SemiNaive, RepeatedRunsAreIdempotent) {
  Database db;
  MakeChain(&db, "edge", "v", 5);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db).ok());
  size_t first = db.Find("tc")->size();
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db).ok());
  EXPECT_EQ(db.Find("tc")->size(), first);
}

TEST(SemiNaive, StatsTimerAndTotals) {
  Database db;
  MakeChain(&db, "edge", "v", 10);
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats).ok());
  EXPECT_EQ(stats.algorithm, "seminaive");
  EXPECT_EQ(stats.tuples_inserted, TcSizeOfChain(10));
  EXPECT_EQ(stats.max_relation_size, TcSizeOfChain(10));
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_EQ(stats.TotalRelationSize(), TcSizeOfChain(10));
  EXPECT_NE(stats.ToString().find("seminaive"), std::string::npos);
}

TEST(SemiNaive, SameGeneration) {
  Database db;
  MakeSameGenerationData(&db, 2, 3);
  ASSERT_TRUE(EvaluateSemiNaive(SameGenerationProgram(), &db).ok());
  const Relation* sg = db.Find("sg");
  // Siblings at every level of a binary depth-3 tree: level 1 has 2
  // ordered pairs; deeper levels inherit through up/down.
  EXPECT_GT(sg->size(), 0u);
  // sg is symmetric on this data.
  for (size_t i = 0; i < sg->size(); ++i) {
    Row r = sg->row(i);
    std::vector<Value> rev = {r[1], r[0]};
    EXPECT_TRUE(sg->Contains(Row(rev.data(), 2)));
  }
}

}  // namespace
}  // namespace seprec
