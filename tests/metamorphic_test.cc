// Metamorphic properties: semantics-preserving program transformations
// must not change query answers, and positive programs are monotone in
// the EDB.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace seprec {
namespace {

std::vector<std::string> AnswerStrings(const Program& program,
                                       const Atom& query, Strategy strategy,
                                       std::function<void(Database*)> load) {
  auto qp = QueryProcessor::Create(program);
  SEPREC_CHECK(qp.ok());
  Database db;
  load(&db);
  auto result = qp->Answer(query, &db, strategy);
  SEPREC_CHECK(result.ok());
  return result->answer.ToStrings(db.symbols());
}

void LoadExample12(Database* db) { MakeExample12Data(db, 9); }

TEST(Metamorphic, BodyPermutationPreservesAnswers) {
  Program base = Example12Program();
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  auto expected = AnswerStrings(base, query, Strategy::kAuto, LoadExample12);

  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    Program shuffled = base;
    for (Rule& rule : shuffled.rules) {
      for (size_t i = rule.body.size(); i > 1; --i) {
        std::swap(rule.body[i - 1], rule.body[rng.Below(i)]);
      }
    }
    for (Strategy s : {Strategy::kSeparable, Strategy::kMagic,
                       Strategy::kSemiNaive}) {
      EXPECT_EQ(AnswerStrings(shuffled, query, s, LoadExample12), expected)
          << "trial " << trial << " strategy " << StrategyToString(s);
    }
  }
}

TEST(Metamorphic, RuleDuplicationPreservesAnswers) {
  Program doubled = Example12Program();
  std::vector<Rule> copy = doubled.rules;
  for (Rule& rule : copy) doubled.rules.push_back(rule);
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  EXPECT_EQ(
      AnswerStrings(doubled, query, Strategy::kAuto, LoadExample12),
      AnswerStrings(Example12Program(), query, Strategy::kAuto,
                    LoadExample12));
}

TEST(Metamorphic, IrrelevantRulesPreserveAnswers) {
  Program padded = Example12Program();
  Program extra = ParseProgramOrDie(
      "zig(X, Y) :- zag(X, W), zig(W, Y).\n"
      "zig(X, Y) :- zag(X, Y).\n"
      "unrelated(X) :- whatever(X), not blocked(X).");
  for (Rule& rule : extra.rules) padded.rules.push_back(std::move(rule));
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  EXPECT_EQ(
      AnswerStrings(padded, query, Strategy::kAuto, LoadExample12),
      AnswerStrings(Example12Program(), query, Strategy::kAuto,
                    LoadExample12));
}

TEST(Metamorphic, ConsistentVariableRenamingPreservesAnswers) {
  Program renamed = Example12Program();
  for (Rule& rule : renamed.rules) {
    std::set<std::string> vars;
    CollectVars(rule, &vars);
    Substitution sub;
    int i = 0;
    for (const std::string& v : vars) {
      sub[v] = Term::Var(StrCat("Fresh", i++, v));
    }
    rule = Substitute(rule, sub);
  }
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  EXPECT_EQ(
      AnswerStrings(renamed, query, Strategy::kAuto, LoadExample12),
      AnswerStrings(Example12Program(), query, Strategy::kAuto,
                    LoadExample12));
}

TEST(Metamorphic, TautologicalRulePreservesAnswers) {
  Program padded = Example12Program();
  padded.rules.push_back(
      ParseProgramOrDie("buys(X, Y) :- buys(X, Y).").rules[0]);
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  for (Strategy s : {Strategy::kSeparable, Strategy::kMagic,
                     Strategy::kSemiNaive}) {
    EXPECT_EQ(AnswerStrings(padded, query, s, LoadExample12),
              AnswerStrings(Example12Program(), query, s, LoadExample12))
        << StrategyToString(s);
  }
}

TEST(Metamorphic, PositiveProgramsAreMonotone) {
  // Adding EDB tuples can only add answers.
  Atom query = ParseAtomOrDie("tc(v0, Y)");
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Rng rng(5);
  std::vector<std::pair<size_t, size_t>> edges;
  std::set<std::string> previous;
  for (int round = 0; round < 8; ++round) {
    edges.emplace_back(rng.Below(12), rng.Below(12));
    Database db;
    Relation* rel = *db.CreateRelation("edge", 2);
    for (auto [from, to] : edges) {
      rel->Insert({db.symbols().Intern(NodeName("v", from)),
                   db.symbols().Intern(NodeName("v", to))});
    }
    auto result = qp->Answer(query, &db);
    ASSERT_TRUE(result.ok());
    std::vector<std::string> now = result->answer.ToStrings(db.symbols());
    for (const std::string& old : previous) {
      EXPECT_NE(std::find(now.begin(), now.end(), old), now.end())
          << "answer " << old << " vanished after adding an edge";
    }
    previous = std::set<std::string>(now.begin(), now.end());
  }
}

TEST(Metamorphic, RectificationPreservesAnswers) {
  Program p = ParseProgramOrDie(
      "same(X, X) :- node(X).\n"
      "node(X) :- edge(X, Y).\n"
      "node(Y) :- edge(X, Y).");
  Program rectified = Rectify(p);
  auto load = [](Database* db) { MakeChain(db, "edge", "v", 5); };
  Atom query = ParseAtomOrDie("same(X, Y)");
  EXPECT_EQ(AnswerStrings(p, query, Strategy::kSemiNaive, load),
            AnswerStrings(rectified, query, Strategy::kSemiNaive, load));
}

TEST(Metamorphic, ExitRuleSplitPreservesAnswers) {
  // Splitting the exit relation into a union of two relations relocated
  // into two exit rules is invisible to every engine.
  Program split = ParseProgramOrDie(
      "buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
      "buys(X, Y) :- buys(X, W) & cheaper(Y, W).\n"
      "buys(X, Y) :- perfectA(X, Y).\n"
      "buys(X, Y) :- perfectB(X, Y).");
  auto load_split = [](Database* db) {
    MakeChain(db, "friend", "a", 9);
    MakeChain(db, "cheaper", "b", 9);
    MakeFact(db, "perfectA", {NodeName("a", 8), NodeName("b", 8)});
    MakeFact(db, "perfectB", {NodeName("a", 4), NodeName("b", 2)});
  };
  Atom query = ParseAtomOrDie("buys(a0, Y)");
  auto expected =
      AnswerStrings(split, query, Strategy::kSemiNaive, load_split);
  for (Strategy s : {Strategy::kSeparable, Strategy::kMagic}) {
    EXPECT_EQ(AnswerStrings(split, query, s, load_split), expected)
        << StrategyToString(s);
  }
}

TEST(Metamorphic, PartialAnswersAreSubsetsOfFullAnswers) {
  // Sound degradation: for a positive (monotone) program, a budget-limited
  // run may return fewer tuples but never a wrong one, and it must leave
  // the database exactly as it found it.
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Atom query = ParseAtomOrDie("tc(v0, Y)");

  Database full_db;
  MakeChain(&full_db, "edge", "v", 80);
  auto full = qp->Answer(query, &full_db);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->partial);
  std::vector<std::string> full_strings =
      full->answer.ToStrings(full_db.symbols());
  std::sort(full_strings.begin(), full_strings.end());
  ASSERT_EQ(full_strings.size(), 79u);

  // Iteration budgets, byte budgets and an expired deadline.
  std::vector<std::pair<std::string, ExecutionLimits>> trips;
  for (size_t budget : {1u, 2u, 4u, 8u, 16u, 32u}) {
    ExecutionLimits limits;
    limits.max_iterations = budget;
    trips.emplace_back(StrCat("iterations=", budget), limits);
  }
  for (size_t budget : {1u << 10, 1u << 12, 1u << 14}) {
    ExecutionLimits limits;
    limits.max_bytes = budget;
    trips.emplace_back(StrCat("bytes=", budget), limits);
  }
  ExecutionLimits expired;
  expired.timeout_ms = 0;
  trips.emplace_back("deadline=0ms", expired);

  bool saw_partial = false;
  for (const auto& [name, limits] : trips) {
    Database db;
    MakeChain(&db, "edge", "v", 80);
    const std::vector<std::string> names_before = db.RelationNames();
    FixpointOptions options;
    options.limits = limits;
    auto limited = qp->Answer(query, &db, Strategy::kAuto, options);
    ASSERT_TRUE(limited.ok()) << name << ": " << limited.status().ToString();
    std::vector<std::string> subset =
        limited->answer.ToStrings(db.symbols());
    std::sort(subset.begin(), subset.end());
    EXPECT_TRUE(std::includes(full_strings.begin(), full_strings.end(),
                              subset.begin(), subset.end()))
        << name;
    if (limited->partial) {
      saw_partial = true;
      EXPECT_LT(subset.size(), full_strings.size()) << name;
      // The truncated attempt left no trace.
      EXPECT_EQ(db.RelationNames(), names_before) << name;
    }
  }
  EXPECT_TRUE(saw_partial);
}

}  // namespace
}  // namespace seprec
