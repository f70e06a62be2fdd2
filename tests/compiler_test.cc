#include "core/compiler.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "util/string_util.h"

namespace seprec {
namespace {

TEST(QueryProcessor, CreateValidates) {
  EXPECT_FALSE(
      QueryProcessor::Create(ParseProgramOrDie("p(X, Y) :- q(X).")).ok());
  EXPECT_TRUE(QueryProcessor::Create(Example11Program()).ok());
}

TEST(QueryProcessor, DecideSeparable) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  auto decision = qp->Decide(ParseAtomOrDie("buys(tom, Y)"));
  EXPECT_EQ(decision.strategy, Strategy::kSeparable);
  EXPECT_NE(decision.reason.find("full selection"), std::string::npos);
}

TEST(QueryProcessor, DecidePartialSelection) {
  auto qp = QueryProcessor::Create(Example24Program());
  ASSERT_TRUE(qp.ok());
  auto decision = qp->Decide(ParseAtomOrDie("t(c, Y, Z)"));
  EXPECT_EQ(decision.strategy, Strategy::kSeparable);
  EXPECT_NE(decision.reason.find("partial"), std::string::npos);
}

TEST(QueryProcessor, DecideMagicForNonSeparable) {
  auto qp = QueryProcessor::Create(SameGenerationProgram());
  ASSERT_TRUE(qp.ok());
  auto decision = qp->Decide(ParseAtomOrDie("sg(a, Y)"));
  EXPECT_EQ(decision.strategy, Strategy::kMagic);
  EXPECT_NE(decision.reason.find("not separable"), std::string::npos);
  EXPECT_FALSE(qp->SeparabilityFailure("sg").empty());
}

TEST(QueryProcessor, DecideSemiNaiveWithoutConstants) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  auto decision = qp->Decide(ParseAtomOrDie("buys(X, Y)"));
  EXPECT_EQ(decision.strategy, Strategy::kSemiNaive);
}

TEST(QueryProcessor, DecideEdbAndNonRecursive) {
  Program p = ParseProgramOrDie(
      "view(X, Y) :- base(X, Y).\n"
      "t(X) :- e(X, W) & t(W).\n"
      "t(X) :- t0(X).");
  auto qp = QueryProcessor::Create(p);
  ASSERT_TRUE(qp.ok());
  EXPECT_EQ(qp->Decide(ParseAtomOrDie("base(a, Y)")).strategy,
            Strategy::kSemiNaive);
  EXPECT_EQ(qp->Decide(ParseAtomOrDie("view(a, Y)")).strategy,
            Strategy::kSemiNaive);
  EXPECT_EQ(qp->Decide(ParseAtomOrDie("t(a)")).strategy,
            Strategy::kSeparable);
}

TEST(QueryProcessor, EdbDirectSelection) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeExample11Data(&db, 5);
  auto result = qp->Answer(ParseAtomOrDie("friend(a1, Y)"), &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.size(), 1u);
  EXPECT_EQ(result->answer.ToStrings(db.symbols())[0], "(a1, a2)");
}

TEST(QueryProcessor, UnknownPredicateGivesEmptyAnswer) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  Database db;
  auto result = qp->Answer(ParseAtomOrDie("mystery(a)"), &db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answer.empty());
}

TEST(QueryProcessor, ArityMismatchRejected) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  Database db;
  EXPECT_FALSE(qp->Answer(ParseAtomOrDie("buys(a)"), &db).ok());
}

TEST(QueryProcessor, ForcedStrategyFailsWhenInapplicable) {
  auto qp = QueryProcessor::Create(SameGenerationProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeSameGenerationData(&db, 2, 2);
  auto result =
      qp->Answer(ParseAtomOrDie("sg(s1, Y)"), &db, Strategy::kSeparable);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryProcessor, AllStrategiesAgreeOnExample12) {
  auto qp = QueryProcessor::Create(Example12Program());
  ASSERT_TRUE(qp.ok());
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  std::vector<Answer> answers;
  for (Strategy s : {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
                     Strategy::kSemiNaive, Strategy::kNaive}) {
    Database db;
    MakeExample12Data(&db, 7);
    auto result = qp->Answer(query, &db, s);
    ASSERT_TRUE(result.ok())
        << StrategyToString(s) << ": " << result.status().ToString();
    answers.push_back(result->answer);
  }
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_EQ(answers[0], answers[i]);
  }
  EXPECT_EQ(answers[0].size(), 7u);
}

TEST(QueryProcessor, AutoUsesMagicOnSameGeneration) {
  auto qp = QueryProcessor::Create(SameGenerationProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeSameGenerationData(&db, 2, 3);
  auto result = qp->Answer(ParseAtomOrDie("sg(s3, Y)"), &db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, Strategy::kMagic);
  Database ref;
  MakeSameGenerationData(&ref, 2, 3);
  auto expected =
      qp->Answer(ParseAtomOrDie("sg(s3, Y)"), &ref, Strategy::kSemiNaive);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->answer, expected->answer);
}

TEST(QueryProcessor, SemiNaiveFocusesOnDependencies) {
  // Evaluating a query on `left` must not materialise `right`.
  Program p = ParseProgramOrDie(
      "left(X, Y) :- ledge(X, Y).\n"
      "left(X, Y) :- ledge(X, W) & left(W, Y).\n"
      "right(X, Y) :- redge(X, Y).\n"
      "right(X, Y) :- redge(X, W) & right(W, Y).");
  auto qp = QueryProcessor::Create(p);
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "ledge", "l", 4);
  MakeChain(&db, "redge", "r", 4);
  auto result =
      qp->Answer(ParseAtomOrDie("left(X, Y)"), &db, Strategy::kSemiNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db.Find("right"), nullptr);
}

TEST(QueryProcessor, StrategyToStringNames) {
  EXPECT_EQ(StrategyToString(Strategy::kSeparable), "separable");
  EXPECT_EQ(StrategyToString(Strategy::kMagic), "magic");
  EXPECT_EQ(StrategyToString(Strategy::kCounting), "counting");
  EXPECT_EQ(StrategyToString(Strategy::kSemiNaive), "seminaive");
  EXPECT_EQ(StrategyToString(Strategy::kNaive), "naive");
  EXPECT_EQ(StrategyToString(Strategy::kAuto), "auto");
}

TEST(QueryProcessor, ParseStrategyInvertsStrategyToString) {
  for (Strategy s : {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
                     Strategy::kCounting, Strategy::kQsqr,
                     Strategy::kNonRecursive, Strategy::kSemiNaive,
                     Strategy::kNaive}) {
    StatusOr<Strategy> parsed = ParseStrategy(StrategyToString(s));
    ASSERT_TRUE(parsed.ok()) << StrategyToString(s);
    EXPECT_EQ(*parsed, s) << StrategyToString(s);
  }
  for (const char* name : {"bogus", "", "Magic", "?"}) {
    StatusOr<Strategy> parsed = ParseStrategy(name);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(parsed.status().message(),
              StrCat("unknown strategy '", name, "'"));
  }
}

TEST(QueryProcessor, ExplainSeparableFullAndPartial) {
  auto qp = QueryProcessor::Create(Example24Program());
  ASSERT_TRUE(qp.ok());
  auto full = qp->Explain(ParseAtomOrDie("t(c, d, Z)"));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_NE(full->find("strategy : separable"), std::string::npos) << *full;
  EXPECT_NE(full->find("instantiated schema"), std::string::npos);
  auto partial = qp->Explain(ParseAtomOrDie("t(c, Y, Z)"));
  ASSERT_TRUE(partial.ok());
  EXPECT_NE(partial->find("Lemma 2.1"), std::string::npos) << *partial;
}

TEST(QueryProcessor, ExplainMagicShowsRewrite) {
  auto qp = QueryProcessor::Create(SameGenerationProgram());
  ASSERT_TRUE(qp.ok());
  auto text = qp->Explain(ParseAtomOrDie("sg(a, Y)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("strategy : magic"), std::string::npos);
  EXPECT_NE(text->find("magic_sg_bf"), std::string::npos) << *text;
}

TEST(QueryProcessor, ExplainSemiNaiveListsRules) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  auto text = qp->Explain(ParseAtomOrDie("buys(X, Y)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("strategy : seminaive"), std::string::npos);
  EXPECT_NE(text->find("buys(X, Y) :- friend(X, W), buys(W, Y)."),
            std::string::npos)
      << *text;
  auto edb = qp->Explain(ParseAtomOrDie("friend(a, Y)"));
  ASSERT_TRUE(edb.ok());
  EXPECT_NE(edb->find("base relation"), std::string::npos);
}

TEST(QueryProcessor, ResultCarriesStatsAndReason) {
  auto qp = QueryProcessor::Create(Example11Program());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeExample11Data(&db, 6);
  auto result = qp->Answer(ParseAtomOrDie("buys(a0, Y)"), &db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, Strategy::kSeparable);
  EXPECT_FALSE(result->reason.empty());
  EXPECT_EQ(result->stats.algorithm, "separable");
  EXPECT_GT(result->stats.max_relation_size, 0u);
}

TEST(PreparedQuery, EvaluatesInItsOwnOverlayAndNeverCommits) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"));
  ASSERT_TRUE(qp.ok());
  Database db;
  ASSERT_TRUE(db.AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("edge", {"b", "c"}).ok());
  const Atom query = ParseAtomOrDie("tc(a, Y)");
  auto prepared = qp->Prepare(query, &db);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->has_compiled_schema());
  auto result = prepared->Execute(query, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.size(), 2u);
  // Neither the IDB relation nor the schema's scratch reached `db`.
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"edge"});

  auto commit = prepared->Execute(query, &db, {}, nullptr, nullptr,
                                  /*commit=*/true);
  EXPECT_EQ(commit.status().code(), StatusCode::kInvalidArgument);
  Database other;
  EXPECT_EQ(prepared->Execute(query, &other).status().code(),
            StatusCode::kInvalidArgument);

  // The overlay moves with the plan; the moved-from object refuses.
  PreparedQuery moved = std::move(*prepared);
  EXPECT_EQ(prepared->Execute(query, &db).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(moved.Execute(query, &db)->answer.size(), 2u);
}

TEST(QueryProcessor, ExitRuleRowsCountAgainstTheByteBudget) {
  // `edge` is IDB here (an inline fact) and also stored with 2,000 rows,
  // so every evaluation derives them into its overlay through the exit
  // rule edge(X1, X2) :- edge'(X1, X2). They are derived rows like any
  // other: a byte budget below their size stops the evaluation, one above
  // it does not, and either way the request leaves the accountant at the
  // stored level.
  auto qp = QueryProcessor::Create(ParseProgramOrDie(
      "edge(a, b).\n"
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"));
  ASSERT_TRUE(qp.ok());
  Database db;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.AddFact("edge", std::vector<std::string>{
                                       StrCat("n", i), StrCat("m", i)})
                    .ok());
  }
  const size_t stored = db.accountant().bytes();
  FixpointOptions tight;
  tight.limits.max_bytes = stored / 4;
  FixpointOptions roomy;
  roomy.limits.max_bytes = stored * 4;
  const Atom query = ParseAtomOrDie("tc(a, Y)");

  auto prepared = qp->Prepare(query, &db);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(db.accountant().bytes(), stored);  // the plan holds no rows
  for (int run = 0; run < 2; ++run) {
    auto stopped = prepared->Execute(query, &db, tight);
    ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
    EXPECT_TRUE(stopped->partial);
    ASSERT_TRUE(stopped->degradation.has_value());
    EXPECT_EQ(stopped->degradation->cause, StopCause::kBytes);
    EXPECT_EQ(db.accountant().bytes(), stored);
    auto result = prepared->Execute(query, &db, roomy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->partial);
    EXPECT_EQ(result->answer.size(), 1u);
    EXPECT_EQ(db.accountant().bytes(), stored);
  }

  auto stopped = qp->Answer(query, &db, Strategy::kAuto, tight);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_TRUE(stopped->partial);
  EXPECT_EQ(db.accountant().bytes(), stored);  // nothing committed
  auto answered = qp->Answer(query, &db, Strategy::kAuto, roomy);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_FALSE(answered->partial);
  EXPECT_EQ(answered->answer.size(), 1u);
  EXPECT_EQ(db.Find("edge")->size(), 2001u);  // committed: the inline fact
}

TEST(PreparedQuery, APlanPreparedBeforeItsPredicateWasStoredIsRefused) {
  // Right-linear, so the stored tc row (c, z) extends every path to c.
  auto qp = QueryProcessor::Create(ParseProgramOrDie(
      "tc(X, Y) :- edge(X, W), tc(W, Y).\n"
      "tc(X, Y) :- edge(X, Y).\n"));
  ASSERT_TRUE(qp.ok());
  Database db;
  ASSERT_TRUE(db.AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("edge", {"b", "c"}).ok());
  const Atom query = ParseAtomOrDie("tc(a, Y)");
  auto before = qp->Prepare(query, &db);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->Stale());
  ASSERT_TRUE(db.AddFact("edge", {"c", "d"}).ok());
  EXPECT_FALSE(before->Stale());  // `edge` is not derived
  EXPECT_EQ(before->Execute(query, &db)->answer.size(), 3u);

  ASSERT_TRUE(db.AddFact("tc", {"c", "z"}).ok());
  EXPECT_TRUE(before->Stale());
  EXPECT_EQ(before->Execute(query, &db).status().code(),
            StatusCode::kFailedPrecondition);
  auto after = qp->Prepare(query, &db);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->Stale());
  auto result = after->Execute(query, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.ToStrings(db.symbols()),
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)",
                                      "(a, z)"}));

  // A stored `tc` of another arity cannot be facts of tc/2.
  Database other;
  ASSERT_TRUE(other.AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(other.AddFact("tc", {"a", "b", "c"}).ok());
  EXPECT_EQ(qp->Prepare(query, &other).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(qp->Answer(query, &other).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(other.RelationNames(), (std::vector<std::string>{"edge", "tc"}));
}

}  // namespace
}  // namespace seprec
