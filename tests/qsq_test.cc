// QSQR top-down evaluation: answers agree with every other engine, and
// the explored adorned system mirrors the Magic rewrite's.
#include "eval/qsq.h"

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/query.h"
#include "datalog/parser.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "magic/engine.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seprec {
namespace {

Answer ReferenceAnswer(const Program& program, const Atom& query,
                       Database* db) {
  Status status = EvaluateSemiNaive(program, db);
  SEPREC_CHECK(status.ok());
  return SelectMatching(*db->Find(query.predicate), query, db->symbols());
}

TEST(Qsqr, TransitiveClosureChain) {
  Database db;
  MakeChain(&db, "edge", "v", 10);
  auto run = EvaluateWithQsqr(TransitiveClosureProgram(),
                              ParseAtomOrDie("tc(v3, Y)"), &db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer.size(), 6u);
  EXPECT_TRUE(run->adorned.count("tc_bf"));
}

TEST(Qsqr, AgreesWithSemiNaiveOnManyShapes) {
  struct Case {
    Program program;
    Atom query;
    std::function<void(Database*)> load;
  };
  std::vector<Case> cases;
  cases.push_back({TransitiveClosureProgram(), ParseAtomOrDie("tc(v0, Y)"),
                   [](Database* db) { MakeCycle(db, "edge", "v", 7); }});
  cases.push_back({TransitiveClosureProgram(), ParseAtomOrDie("tc(X, v5)"),
                   [](Database* db) { MakeChain(db, "edge", "v", 9); }});
  cases.push_back({Example11Program(), ParseAtomOrDie("buys(a0, Y)"),
                   [](Database* db) { MakeExample11Data(db, 8); }});
  cases.push_back({Example12Program(), ParseAtomOrDie("buys(a0, Y)"),
                   [](Database* db) { MakeExample12Data(db, 8); }});
  cases.push_back({SameGenerationProgram(), ParseAtomOrDie("sg(s5, Y)"),
                   [](Database* db) { MakeSameGenerationData(db, 2, 4); }});
  for (size_t i = 0; i < cases.size(); ++i) {
    Database db1, db2;
    cases[i].load(&db1);
    cases[i].load(&db2);
    auto run = EvaluateWithQsqr(cases[i].program, cases[i].query, &db1);
    ASSERT_TRUE(run.ok()) << "case " << i << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->answer,
              ReferenceAnswer(cases[i].program, cases[i].query, &db2))
        << "case " << i;
  }
}

TEST(Qsqr, RandomGraphSweep) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db1, db2;
    MakeRandomGraph(&db1, "edge", "v", 18, 36, seed);
    MakeRandomGraph(&db2, "edge", "v", 18, 36, seed);
    Atom query = ParseAtomOrDie("tc(v2, Y)");
    auto run = EvaluateWithQsqr(TransitiveClosureProgram(), query, &db1);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->answer,
              ReferenceAnswer(TransitiveClosureProgram(), query, &db2))
        << "seed " << seed;
  }
}

TEST(Qsqr, ExploresSameAdornedSystemAsMagic) {
  Atom query = ParseAtomOrDie("sg(s3, Y)");
  Database db1, db2;
  MakeSameGenerationData(&db1, 2, 4);
  MakeSameGenerationData(&db2, 2, 4);
  auto qsqr = EvaluateWithQsqr(SameGenerationProgram(), query, &db1);
  ASSERT_TRUE(qsqr.ok());
  auto magic = EvaluateWithMagic(SameGenerationProgram(), query, &db2);
  ASSERT_TRUE(magic.ok());
  // Same adorned predicates...
  std::set<std::string> magic_adorned = magic->rewrite.adorned_predicates;
  EXPECT_EQ(qsqr->adorned, magic_adorned);
  // ...and the same focus: QSQR's subquery sets match the magic sets.
  for (const std::string& key : qsqr->adorned) {
    size_t input_size = qsqr->stats.relation_sizes.at("input_" + key);
    size_t magic_size = magic->stats.relation_sizes.at("magic_" + key);
    EXPECT_EQ(input_size, magic_size) << key;
    EXPECT_EQ(qsqr->stats.relation_sizes.at("ans_" + key),
              magic->stats.relation_sizes.at(key))
        << key;
  }
}

TEST(Qsqr, FocusMatchesMagicOnDisconnectedChains) {
  Database db1, db2;
  MakeChain(&db1, "edge", "left", 30);
  MakeChain(&db1, "edge", "right", 30);
  MakeChain(&db2, "edge", "left", 30);
  MakeChain(&db2, "edge", "right", 30);
  Atom query = ParseAtomOrDie("tc(left20, Y)");
  auto qsqr = EvaluateWithQsqr(TransitiveClosureProgram(), query, &db1);
  ASSERT_TRUE(qsqr.ok());
  EXPECT_EQ(qsqr->answer.size(), 9u);
  // Only the cone from left20 was explored.
  EXPECT_LE(qsqr->stats.relation_sizes.at("input_tc_bf"), 10u);
  auto magic = EvaluateWithMagic(TransitiveClosureProgram(), query, &db2);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(qsqr->stats.relation_sizes.at("input_tc_bf"),
            magic->stats.relation_sizes.at("magic_tc_bf"));
}

TEST(Qsqr, BuiltinsAndConstantsInRules) {
  Program p = ParseProgramOrDie(
      "fib_pair(0, 0, 1).\n"
      "fib_pair(N, B, S) :- fib_pair(M, A, B), M < 10, N is M + 1, "
      "S is A + B.\n"
      "fib(N, F) :- fib_pair(N, F, S).");
  Database db1, db2;
  Atom query = ParseAtomOrDie("fib(10, F)");
  auto run = EvaluateWithQsqr(p, query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer, ReferenceAnswer(p, query, &db2));
  ASSERT_EQ(run->answer.size(), 1u);
  EXPECT_EQ(run->answer.ToStrings(db1.symbols())[0], "(10, 55)");
}

TEST(Qsqr, NegationOverLowerStratum) {
  Program p = ParseProgramOrDie(
      "closed(X) :- raw_closed(X).\n"
      "tc(X, Y) :- edge(X, Y), not closed(Y).\n"
      "tc(X, Y) :- edge(X, W), not closed(W), tc(W, Y).");
  Database db1, db2;
  for (Database* db : {&db1, &db2}) {
    MakeChain(db, "edge", "v", 8);
    MakeFact(db, "raw_closed", {"v5"});
  }
  Atom query = ParseAtomOrDie("tc(v0, Y)");
  auto run = EvaluateWithQsqr(p, query, &db1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer, ReferenceAnswer(p, query, &db2));
  EXPECT_EQ(run->answer.size(), 4u);
}

TEST(Qsqr, AllFreeQueryStillComplete) {
  Database db1, db2;
  MakeChain(&db1, "edge", "v", 6);
  MakeChain(&db2, "edge", "v", 6);
  Atom query = ParseAtomOrDie("tc(X, Y)");
  auto run = EvaluateWithQsqr(TransitiveClosureProgram(), query, &db1);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->answer,
            ReferenceAnswer(TransitiveClosureProgram(), query, &db2));
}

TEST(Qsqr, RejectsEdbAndBadArity) {
  Database db;
  EXPECT_FALSE(EvaluateWithQsqr(TransitiveClosureProgram(),
                                ParseAtomOrDie("edge(a, B)"), &db)
                   .ok());
  EXPECT_FALSE(EvaluateWithQsqr(TransitiveClosureProgram(),
                                ParseAtomOrDie("tc(a)"), &db)
                   .ok());
}

TEST(Qsqr, BudgetRespected) {
  Database db;
  MakeChain(&db, "edge", "v", 500);
  FixpointOptions options;
  options.limits.max_tuples = 50;
  auto run = EvaluateWithQsqr(TransitiveClosureProgram(),
                              ParseAtomOrDie("tc(v0, Y)"), &db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST(Qsqr, AvailableAsForcedStrategy) {
  auto qp = QueryProcessor::Create(Example12Program());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeExample12Data(&db, 7);
  auto result =
      qp->Answer(ParseAtomOrDie("buys(a0, Y)"), &db, Strategy::kQsqr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.size(), 7u);
  EXPECT_EQ(result->stats.algorithm, "qsqr");
  EXPECT_EQ(StrategyToString(Strategy::kQsqr), "qsqr");
}

// The chain p0(X) :- p1(X). ... p{n-1}(X) :- e(X). with e(a). takes 3n + 3
// passes, each adding at most one tuple. A pass runs only the sweeps whose
// input changed, so time grows about linearly with n: four times the rules
// may take at most about ten times as long, judged within one run.
TEST(Qsqr, ChainTimeGrowsAboutLinearly) {
  auto best_seconds = [](size_t n) {
    std::string text;
    for (size_t i = 0; i + 1 < n; ++i) {
      text += StrCat("p", i, "(X) :- p", i + 1, "(X).\n");
    }
    text += StrCat("p", n - 1, "(X) :- e(X).\ne(a).\n");
    const Program program = ParseProgramOrDie(text);
    const Atom query = ParseAtomOrDie("p0(a)");
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Database db;
      WallTimer timer;
      auto run = EvaluateWithQsqr(program, query, &db);
      const double seconds = timer.Seconds();
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (run.ok()) {
        EXPECT_EQ(run->answer.size(), 1u);
        EXPECT_EQ(run->stats.iterations, 3 * n + 3);
      }
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };
  const double small = best_seconds(500);
  const double large = best_seconds(2000);
  EXPECT_LT(large, 10 * small)
      << "500 rules: " << small << " s, 2,000 rules: " << large << " s";
}

}  // namespace
}  // namespace seprec
