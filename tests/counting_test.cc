#include "counting/counting_transform.h"
#include "counting/engine.h"

#include <gtest/gtest.h>

#include "core/query.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "gen/generators.h"
#include "gen/workloads.h"

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

TEST(CountingTransform, Example11Structure) {
  auto rewrite = CountingTransform(Example11Program(),
                                   ParseAtomOrDie("buys(a0, Y)"));
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  EXPECT_EQ(rewrite->count_predicate, "count_buys");
  EXPECT_EQ(rewrite->bound_positions, (std::vector<uint32_t>{0}));
  EXPECT_EQ(rewrite->free_positions, (std::vector<uint32_t>{1}));
  const std::string text = rewrite->program.ToString();
  // Seed and one descend rule per recursive rule (base p+1 = 3).
  EXPECT_NE(text.find("count_buys(0, 0, a0)."), std::string::npos) << text;
  EXPECT_NE(text.find("CK1 is ((CK * 3) + 1)"), std::string::npos) << text;
  EXPECT_NE(text.find("CK1 is ((CK * 3) + 2)"), std::string::npos) << text;
}

TEST(CountingTransform, RequiresConstant) {
  EXPECT_FALSE(
      CountingTransform(Example11Program(), ParseAtomOrDie("buys(X, Y)"))
          .ok());
}

TEST(CountingTransform, RejectsBoundFreeLink) {
  // A literal connecting the bound column to the free column defeats the
  // descend/ascend split.
  Program p = ParseProgramOrDie(
      "t(X, Y) :- a(X, W, Y) & t(W, Y).\n"
      "t(X, Y) :- t0(X, Y).");
  auto rewrite = CountingTransform(p, ParseAtomOrDie("t(c, Y)"));
  EXPECT_FALSE(rewrite.ok());
  EXPECT_EQ(rewrite.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CountingTransform, RejectsADescentThatPassesTheBoundColumnsOn) {
  // count(I+1, X) :- count(I, X) would add a level every round, whatever
  // the data: left-linear tc, Example 1.2's `buys`, and a recursion that
  // only permutes its bound columns are refused before the rewrite.
  const char* programs[][2] = {
      {"tc(X, Y) :- tc(X, Z) & edge(Z, Y).\n"
       "tc(X, Y) :- edge(X, Y).",
       "tc(a, Y)"},
      {"buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
       "buys(X, Y) :- buys(X, W) & cheaper(Y, W).\n"
       "buys(X, Y) :- perfectFor(X, Y).",
       "buys(tom, Y)"},
      {"t(X, Y, Z) :- t(Y, X, W) & a(W, Z).\n"
       "t(X, Y, Z) :- t0(X, Y, Z).",
       "t(c, d, Z)"},
  };
  for (const auto& [text, query] : programs) {
    auto rewrite =
        CountingTransform(ParseProgramOrDie(text), ParseAtomOrDie(query));
    EXPECT_EQ(rewrite.status().code(), StatusCode::kFailedPrecondition)
        << query;
    EXPECT_NE(rewrite.status().message().find("never ends"),
              std::string::npos)
        << rewrite.status().ToString();
  }
  // The rule that moves the bound column still rewrites.
  EXPECT_TRUE(CountingTransform(ParseProgramOrDie(
                                    "tc(X, Y) :- edge(X, Z) & tc(Z, Y).\n"
                                    "tc(X, Y) :- edge(X, Y)."),
                                ParseAtomOrDie("tc(a, Y)"))
                  .ok());
}

TEST(CountingTransform, RejectsShiftingAcrossSides) {
  Program p = ParseProgramOrDie(
      "t(X, Y) :- a(X, W) & t(W, X).\n"  // head X reappears on free side
      "t(X, Y) :- t0(X, Y).");
  EXPECT_FALSE(CountingTransform(p, ParseAtomOrDie("t(c, Y)")).ok());
}

TEST(CountingEngine, Example11Answer) {
  Database db;
  MakeExample11Data(&db, 8);
  auto run = EvaluateWithCounting(Example11Program(),
                                  ParseAtomOrDie("buys(a0, Y)"), &db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->answer.size(), 1u);
  EXPECT_EQ(run->answer.ToStrings(db.symbols())[0], "(a0, b)");
}

TEST(CountingEngine, CountRelationIsExponentialOnExample11) {
  // friend == idol == a chain: 2^i derivation paths reach level i, so the
  // count relation stores Omega(2^n) tuples (the paper's Section 4 claim).
  size_t previous = 0;
  for (size_t n : {4u, 6u, 8u, 10u}) {
    Database db;
    MakeExample11Data(&db, n);
    auto run = EvaluateWithCounting(Example11Program(),
                                    ParseAtomOrDie("buys(a0, Y)"), &db);
    ASSERT_TRUE(run.ok());
    size_t count_size = run->stats.relation_sizes.at("count_buys");
    // Sum over levels i of 2^i = 2^n - 1.
    EXPECT_EQ(count_size, (size_t{1} << n) - 1) << "n=" << n;
    EXPECT_GT(count_size, previous);
    previous = count_size;
  }
}

TEST(CountingEngine, LinearOnSingleRuleChain) {
  // With one recursive rule the path index is degenerate and counting is
  // O(n) — the good case that motivated the method.
  Database db;
  MakeChain(&db, "edge", "v", 30);
  Program tc = TransitiveClosureProgram();
  auto run = EvaluateWithCounting(tc, ParseAtomOrDie("tc(v0, Y)"), &db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer.size(), 29u);
  EXPECT_LE(run->stats.relation_sizes.at("count_tc"), 30u);
}

TEST(CountingEngine, ClassicChainRuleWithAscent) {
  // t(X, Y) :- up(X, U), t(U, V), down(V, Y): the ascent replays `down`.
  Program p = ParseProgramOrDie(
      "t(X, Y) :- up(X, U) & t(U, V) & down(V, Y).\n"
      "t(X, Y) :- flat(X, Y).");
  Database db1, db2;
  MakeSameGenerationData(&db1, 2, 4);
  MakeSameGenerationData(&db2, 2, 4);
  // Rename relations to match the program.
  // (MakeSameGenerationData created up/down/flat already.)
  Atom query = ParseAtomOrDie("t(s7, Y)");
  auto run = EvaluateWithCounting(p, query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Answer expected = ReferenceAnswer(p, query, &db2);
  EXPECT_EQ(run->answer, expected);
  EXPECT_FALSE(run->answer.empty());
}

TEST(CountingEngine, AgreesWithSemiNaiveOnLemma43Family) {
  for (size_t p : {1u, 2u, 3u}) {
    Program program = SpkProgram(p, 2);
    Database db1, db2;
    MakeLemma43Data(&db1, p, 2, 6);
    MakeLemma43Data(&db2, p, 2, 6);
    Atom query = FirstColumnQuery("t", 2, "c0");
    auto run = EvaluateWithCounting(program, query, &db1);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->answer, ReferenceAnswer(program, query, &db2))
        << "p=" << p;
  }
}

TEST(CountingEngine, CyclicDataExhaustsBudget) {
  // The level index grows forever on a cycle; the iteration budget turns
  // that into RESOURCE_EXHAUSTED (Counting's known failure mode; the
  // Separable algorithm terminates on the same input — Lemma 3.4).
  Database db;
  MakeCycle(&db, "edge", "v", 4);
  FixpointOptions options;
  options.limits.max_iterations = 40;  // below the ~60 levels where K overflows
  auto run = EvaluateWithCounting(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v0, Y)"), &db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

TEST(CountingEngine, CyclicDataWithPathIndexExhaustsTupleBudget) {
  // For p > 1 the derivation-path column K gains a digit per level, so on
  // cyclic data the count relation grows exponentially until the tuple
  // budget stops it.
  Program program = SpkProgram(2, 2);
  Database db;
  MakeCycle(&db, "a1", "v", 4);
  MakeCycle(&db, "a2", "v", 4);
  MakeFact(&db, "t0", {"v0", "w"});
  FixpointOptions options;
  options.limits.max_tuples = 50000;
  auto run = EvaluateWithCounting(program, FirstColumnQuery("t", 2, "v0"),
                                  &db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

TEST(CountingTransform, SingleRuleDropsPathColumn) {
  // p = 1: classic Counting — count(I, X), no exponential path column.
  auto rewrite = CountingTransform(TransitiveClosureProgram(),
                                   ParseAtomOrDie("tc(v0, Y)"));
  ASSERT_TRUE(rewrite.ok());
  EXPECT_FALSE(rewrite->uses_path_index);
  const std::string text = rewrite->program.ToString();
  EXPECT_NE(text.find("count_tc(0, v0)."), std::string::npos) << text;
  EXPECT_EQ(text.find("CK"), std::string::npos) << text;
  // p = 2: the generalized method keeps it.
  auto rewrite2 = CountingTransform(Example11Program(),
                                    ParseAtomOrDie("buys(a0, Y)"));
  ASSERT_TRUE(rewrite2.ok());
  EXPECT_TRUE(rewrite2->uses_path_index);
}

TEST(CountingEngine, BothColumnsBound) {
  Database db;
  MakeChain(&db, "edge", "v", 6);
  auto run = EvaluateWithCounting(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v1, v4)"), &db);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->answer.size(), 1u);
}

TEST(CountingEngine, EmptyAnswerForUnreachableConstant) {
  Database db;
  MakeChain(&db, "edge", "v", 6);
  auto run = EvaluateWithCounting(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v5, Y)"), &db);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->answer.empty());
}

TEST(CountingEngine, SupportMaterialisedFirst) {
  Program p = ParseProgramOrDie(
      "edge(X, Y) :- raw(X, Y).\n"
      "tc(X, Y) :- edge(X, W) & tc(W, Y).\n"
      "tc(X, Y) :- edge(X, Y).");
  Database db;
  MakeChain(&db, "raw", "v", 5);
  auto run = EvaluateWithCounting(p, ParseAtomOrDie("tc(v0, Y)"), &db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer.size(), 4u);
}

}  // namespace
}  // namespace seprec
