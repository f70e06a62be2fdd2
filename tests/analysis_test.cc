#include "datalog/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "gen/workloads.h"
#include "util/string_util.h"

namespace seprec {
namespace {

TEST(Analysis, IdbEdbSplit) {
  Program p = ParseProgramOrDie("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsIdb("t"));
  EXPECT_FALSE(info->IsIdb("e"));
  EXPECT_NE(info->Find("e"), nullptr);
  EXPECT_EQ(info->Find("e")->arity, 2u);
}

TEST(Analysis, ArityMismatchRejected) {
  Program p = ParseProgramOrDie("p(a).\nq(X) :- p(X, X).");
  EXPECT_FALSE(ProgramInfo::Analyze(p).ok());
}

TEST(Analysis, RecursiveAndLinear) {
  Program p = Example11Program();
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsRecursive("buys"));
  EXPECT_TRUE(info->IsLinearRecursive("buys"));
  EXPECT_FALSE(info->IsRecursive("friend"));
}

TEST(Analysis, NonLinearDetected) {
  Program p = ParseProgramOrDie(
      "t(X, Y) :- t(X, W), t(W, Y).\n"
      "t(X, Y) :- e(X, Y).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsRecursive("t"));
  EXPECT_FALSE(info->IsLinearRecursive("t"));
}

TEST(Analysis, MutualRecursion) {
  Program p = ParseProgramOrDie(
      "even(X) :- zero(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->MutuallyRecursive("even", "odd"));
  EXPECT_TRUE(info->IsRecursive("even"));
  EXPECT_FALSE(info->MutuallyRecursive("even", "succ"));
}

TEST(Analysis, StrataAreTopological) {
  Program p = ParseProgramOrDie(
      "a(X) :- base(X).\n"
      "b(X) :- a(X).\n"
      "c(X) :- b(X), a(X).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  std::map<std::string, size_t> order;
  for (size_t i = 0; i < info->strata().size(); ++i) {
    for (const std::string& pred : info->strata()[i]) order[pred] = i;
  }
  EXPECT_LT(order["base"], order["a"]);
  EXPECT_LT(order["a"], order["b"]);
  EXPECT_LT(order["b"], order["c"]);
}

// p0(X) :- p1(X). ... p{n-1}(X) :- e(X). — one predicate deeper per rule.
Program ChainProgram(size_t n) {
  std::string text;
  for (size_t i = 0; i + 1 < n; ++i) {
    text += StrCat("p", i, "(X) :- p", i + 1, "(X).\n");
  }
  text += StrCat("p", n - 1, "(X) :- e(X).\n");
  return ParseProgramOrDie(text);
}

TEST(Analysis, DeepChainAnalyzesWithoutRecursion) {
  // 40,000 predicates deep: a walk with one call frame per predicate
  // overflows the default stack here.
  const size_t n = 40000;
  Program chain = ChainProgram(n);
  auto info = ProgramInfo::Analyze(chain);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->strata().size(), n + 1);
  EXPECT_EQ(info->strata().front(), std::vector<std::string>{"e"});
  EXPECT_EQ(info->strata().back(), std::vector<std::string>{"p0"});
  EXPECT_EQ(PredicateSccs(chain), info->strata());
}

TEST(Analysis, RulesOfStratumListEveryRuleOnceInProgramOrder) {
  Program p = ParseProgramOrDie(
      "b(X) :- a(X).\n"
      "a(X) :- base(X).\n"
      "t(X, Y) :- e(X, Y).\n"
      "b(X) :- c(X).\n"
      "t(X, Y) :- t(X, Z), e(Z, Y).\n"
      "c(X) :- b(X).\n"
      "a(X) :- t(X, X).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  std::vector<const Rule*> seen;
  for (size_t i = 0; i < info->strata().size(); ++i) {
    std::vector<const Rule*> rules = info->RulesOfStratum(i);
    for (size_t k = 0; k < rules.size(); ++k) {
      // Each rule's head lies in the stratum, and the rules keep their
      // program order.
      EXPECT_EQ(info->Find(rules[k]->head.predicate)->scc_id,
                static_cast<int>(i));
      if (k > 0) {
        EXPECT_LT(rules[k - 1], rules[k]);
      }
    }
    seen.insert(seen.end(), rules.begin(), rules.end());
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), info->program().rules.size());
  for (size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r], &info->program().rules[r]);
  }
  // A copy answers from its own program.
  ProgramInfo copy = *info;
  const size_t b_stratum = copy.Find("b")->scc_id;
  std::vector<const Rule*> rules = copy.RulesOfStratum(b_stratum);
  ASSERT_EQ(rules.size(), 3u);
  for (const Rule* rule : rules) {
    bool in_copy = false;
    for (const Rule& r : copy.program().rules) in_copy |= rule == &r;
    EXPECT_TRUE(in_copy) << rule->ToString();
  }
}

TEST(Analysis, DependenciesOfTransitive) {
  Program p = ParseProgramOrDie(
      "a(X) :- base(X).\n"
      "b(X) :- a(X).\n"
      "t(X) :- b(X).\n"
      "t(X) :- t(X), b(X).\n"
      "unrelated(X) :- other(X).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  std::set<std::string> deps = info->DependenciesOf("t");
  EXPECT_TRUE(deps.count("a"));
  EXPECT_TRUE(deps.count("b"));
  EXPECT_TRUE(deps.count("base"));
  EXPECT_TRUE(deps.count("t"));  // self (recursive)
  EXPECT_FALSE(deps.count("unrelated"));
  EXPECT_FALSE(deps.count("other"));
}

// ---- Safety ---------------------------------------------------------------

TEST(Safety, HeadVarMustBeBound) {
  EXPECT_FALSE(CheckSafety(ParseProgramOrDie("p(X, Y) :- q(X).")).ok());
  EXPECT_TRUE(CheckSafety(ParseProgramOrDie("p(X, Y) :- q(X), r(Y).")).ok());
}

TEST(Safety, EqualityBindsTransitively) {
  EXPECT_TRUE(
      CheckSafety(ParseProgramOrDie("p(Z) :- q(X), X = Y, Y = Z.")).ok());
  EXPECT_TRUE(CheckSafety(ParseProgramOrDie("p(X) :- X = tom.")).ok());
  EXPECT_FALSE(CheckSafety(ParseProgramOrDie("p(X) :- X = Y.")).ok());
}

TEST(Safety, AssignmentBindsTarget) {
  EXPECT_TRUE(
      CheckSafety(ParseProgramOrDie("p(Z) :- q(X), Z is X + 1.")).ok());
  EXPECT_FALSE(
      CheckSafety(ParseProgramOrDie("p(Z) :- q(X), Z is W + 1.")).ok());
}

TEST(Safety, ComparisonNeedsBothSidesBound) {
  EXPECT_FALSE(CheckSafety(ParseProgramOrDie("p(X) :- q(X), X < Y.")).ok());
  EXPECT_TRUE(
      CheckSafety(ParseProgramOrDie("p(X) :- q(X), r(Y), X < Y.")).ok());
}

TEST(Safety, GroundFactIsSafe) {
  EXPECT_TRUE(CheckSafety(ParseProgramOrDie("p(a, 3).")).ok());
  EXPECT_FALSE(CheckSafety(ParseProgramOrDie("p(X).")).ok());
}

// ---- Rectify ---------------------------------------------------------------

TEST(Rectify, RepeatedHeadVariable) {
  Program p = ParseProgramOrDie("p(X, X) :- q(X).");
  Program r = Rectify(p);
  const Rule& rule = r.rules[0];
  EXPECT_NE(rule.head.args[0], rule.head.args[1]);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_EQ(rule.body[1].kind, Literal::Kind::kCompare);
  EXPECT_TRUE(CheckSafety(r).ok());
}

TEST(Rectify, HeadConstants) {
  Program p = ParseProgramOrDie("p(a, X) :- q(X).");
  Program r = Rectify(p);
  EXPECT_TRUE(r.rules[0].head.args[0].IsVar());
  EXPECT_TRUE(CheckSafety(r).ok());
}

TEST(Rectify, GroundFact) {
  Program p = ParseProgramOrDie("p(a, b).");
  Program r = Rectify(p);
  EXPECT_TRUE(r.rules[0].head.args[0].IsVar());
  EXPECT_TRUE(r.rules[0].head.args[1].IsVar());
  EXPECT_EQ(r.rules[0].body.size(), 2u);
  EXPECT_TRUE(CheckSafety(r).ok());
}

TEST(Rectify, AlreadyRectifiedUnchanged) {
  Program p = ParseProgramOrDie("p(X, Y) :- q(X, Y).");
  Program r = Rectify(p);
  EXPECT_EQ(p.ToString(), r.ToString());
}

// ---- ConnectedComponents ---------------------------------------------------

std::vector<Literal> BodyOf(const std::string& text) {
  Program p = ParseProgramOrDie(text);
  return p.rules[0].body;
}

TEST(ConnectedComponents, PaperExample22) {
  // a(X, Z0) a(Z0, Z1) b(Z1, Y): one maximal connected set of size 3.
  size_t n = 0;
  auto comp = ConnectedComponents(
      BodyOf("h(X, Y) :- a(X, Z0), a(Z0, Z1), b(Z1, Y)."), &n);
  EXPECT_EQ(n, 1u);
  // a(X, Y) b(Y, Z) c(W): two maximal connected sets.
  comp = ConnectedComponents(
      BodyOf("h(X, Z, W) :- a(X, Y), b(Y, Z), c(W)."), &n);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(ConnectedComponents, BuiltinsShareVariables) {
  size_t n = 0;
  ConnectedComponents(BodyOf("h(X, Y) :- a(X), Y is X + 1."), &n);
  EXPECT_EQ(n, 1u);
}

TEST(ConnectedComponents, GroundLiteralsAreSingletons) {
  size_t n = 0;
  ConnectedComponents(BodyOf("h(X) :- a(X), b(c), d(e)."), &n);
  EXPECT_EQ(n, 3u);
}

// ---- ExtractLinearRecursion -------------------------------------------------

TEST(ExtractLinearRecursion, Example11Shape) {
  auto rec = ExtractLinearRecursion(Example11Program(), "buys");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->predicate, "buys");
  EXPECT_EQ(rec->arity, 2u);
  EXPECT_EQ(rec->recursive_rules.size(), 2u);
  EXPECT_EQ(rec->exit_rules.size(), 1u);
  EXPECT_EQ(rec->head_vars, (std::vector<std::string>{"V0", "V1"}));
  // Canonical heads.
  for (const Rule& r : rec->recursive_rules) {
    EXPECT_EQ(r.head.ToString(), "buys(V0, V1)");
  }
  // The recursive atom's persistent column carries V1.
  EXPECT_EQ(rec->RecursiveBodyAtom(0).args[1], Term::Var("V1"));
}

TEST(ExtractLinearRecursion, RejectsNonLinear) {
  Program p = ParseProgramOrDie(
      "t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).");
  auto rec = ExtractLinearRecursion(p, "t");
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExtractLinearRecursion, RejectsMutualRecursion) {
  Program p = ParseProgramOrDie(
      "p(X) :- e(X).\np(X) :- f(X, W), q(W).\nq(X) :- g(X, W), p(W).");
  EXPECT_FALSE(ExtractLinearRecursion(p, "p").ok());
}

TEST(ExtractLinearRecursion, RejectsBodyDependingOnPredicate) {
  Program p = ParseProgramOrDie(
      "t(X) :- e(X).\n"
      "t(X) :- helper(X, W), t(W).\n"
      "helper(X, Y) :- t(X), e(Y).");
  EXPECT_FALSE(ExtractLinearRecursion(p, "t").ok());
}

TEST(ExtractLinearRecursion, DropsTautology) {
  Program p = ParseProgramOrDie(
      "t(X, Y) :- t(X, Y).\n"
      "t(X, Y) :- e(X, W), t(W, Y).\n"
      "t(X, Y) :- e0(X, Y).");
  auto rec = ExtractLinearRecursion(p, "t");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->recursive_rules.size(), 1u);
}

TEST(ExtractLinearRecursion, NotIdb) {
  Program p = ParseProgramOrDie("t(X) :- e(X).");
  EXPECT_FALSE(ExtractLinearRecursion(p, "e").ok());
  EXPECT_FALSE(ExtractLinearRecursion(p, "ghost").ok());
}

// ---- edge cases the pass pipeline leans on ------------------------------

TEST(Analysis, MutualRecursionThroughNegationIsUnstratifiable) {
  // p and q are in one SCC and each negates the other: no stratification
  // exists, so Analyze must reject rather than classify.
  Program p = ParseProgramOrDie(
      "p(X) :- e(X), not q(X).\n"
      "q(X) :- e(X), not p(X).");
  EXPECT_FALSE(ProgramInfo::Analyze(p).ok());
}

TEST(Analysis, NegationAcrossStrataIsFine) {
  // Mutual recursion AND negation, but the negated predicate sits in a
  // strictly lower stratum — stratifiable, and the SCC classification
  // must not be confused by the negated edge.
  Program p = ParseProgramOrDie(
      "base(X) :- e(X), not blocked(X).\n"
      "even(X) :- base(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->MutuallyRecursive("even", "odd"));
  EXPECT_FALSE(info->IsRecursive("base"));
}

TEST(Analysis, ZeroArityPredicates) {
  Program p = ParseProgramOrDie(
      "flag :- e(X).\n"
      "go(X) :- e(X), flag.");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  ASSERT_NE(info->Find("flag"), nullptr);
  EXPECT_EQ(info->Find("flag")->arity, 0u);
  EXPECT_TRUE(info->IsIdb("flag"));
  EXPECT_FALSE(info->IsRecursive("flag"));
  // flag's stratum precedes go's.
  EXPECT_NE(info->DependenciesOf("go").count("flag"), 0u);
}

TEST(Analysis, ZeroArityRecursionClassified) {
  Program p = ParseProgramOrDie(
      "tick :- seed(X).\n"
      "tick :- tick, pulse(X).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsRecursive("tick"));
}

TEST(Analysis, HeadPredicateUnreachableFromQueryStillAnalyzed) {
  // ProgramInfo is query-independent: rules whose heads no query can
  // reach are still classified (the dead-rule PASS removes them; the
  // analysis layer must not).
  Program p = ParseProgramOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, W), t(W, Y).\n"
      "island(X) :- island_base(X).\n"
      "island(X) :- hop(X, W), island(W).");
  auto info = ProgramInfo::Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsRecursive("island"));
  EXPECT_TRUE(info->IsRecursive("t"));
  // And the dependency sets are disjoint: island is not in t's cone.
  EXPECT_EQ(info->DependenciesOf("t").count("island"), 0u);
  EXPECT_EQ(info->DependenciesOf("island").count("t"), 0u);
}

TEST(FreshVar, AvoidsCollisions) {
  std::set<std::string> used = {"W", "W_0"};
  EXPECT_EQ(FreshVar("W", &used), "W_1");
  EXPECT_EQ(FreshVar("W", &used), "W_2");
  EXPECT_EQ(FreshVar("X", &used), "X");
}

}  // namespace
}  // namespace seprec
