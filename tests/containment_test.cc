// Conjunctive-query containment and the Theorem 2.1 reproduction: two
// expansion strings of a separable recursion with equal per-class
// derivation projections define the same relation.
#include "datalog/containment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "eval/join_plan.h"
#include "gen/workloads.h"
#include "separable/detection.h"
#include "storage/database.h"
#include "util/string_util.h"

namespace seprec {
namespace {

ConjunctiveQuery MakeCq(const std::string& head_atom,
                        const std::string& body_program) {
  // body_program: "h :- a(...), b(...)." style is overkill; accept a list
  // of atoms as a fact-free program "q1(X, Y). q2(Y, Z)." where each
  // clause head is an atom of the conjunction.
  ConjunctiveQuery q;
  Program p = ParseProgramOrDie(body_program);
  for (const Rule& rule : p.rules) {
    q.atoms.push_back(rule.head);
  }
  q.head = ParseAtomOrDie(head_atom).args;
  return q;
}

TEST(Containment, IdenticalQueries) {
  ConjunctiveQuery q = MakeCq("h(X, Y)", "e(X, Y).");
  auto result = Equivalent(q, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);
}

TEST(Containment, RenamedVariablesEquivalent) {
  ConjunctiveQuery a = MakeCq("h(X, Y)", "e(X, W). e(W, Y).");
  ConjunctiveQuery b = MakeCq("h(X, Y)", "e(X, U). e(U, Y).");
  auto result = Equivalent(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);
}

TEST(Containment, ShorterPathContainsLonger) {
  // Classic: the 1-edge query contains nothing extra... in fact
  // e(X, Y) and e(X, W), e(W, Y) are incomparable as queries on
  // distinguished (X, Y). But e(X, W) (Y projected away differently):
  // use the textbook example of redundant atoms instead.
  ConjunctiveQuery minimal = MakeCq("h(X, Y)", "e(X, Y).");
  ConjunctiveQuery redundant = MakeCq("h(X, Y)", "e(X, Y). e(X, W).");
  // Every answer of `redundant` is an answer of `minimal`...
  auto forward = Contains(minimal, redundant);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(*forward);
  // ...and vice versa here, since e(X, Y) witnesses e(X, W) with W = Y.
  auto backward = Contains(redundant, minimal);
  ASSERT_TRUE(backward.ok());
  EXPECT_TRUE(*backward);
}

TEST(Containment, PathLengthsIncomparable) {
  ConjunctiveQuery one = MakeCq("h(X, Y)", "e(X, Y).");
  ConjunctiveQuery two = MakeCq("h(X, Y)", "e(X, W). e(W, Y).");
  auto a = Contains(one, two);
  auto b = Contains(two, one);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*a);
  EXPECT_FALSE(*b);
}

TEST(Containment, ConstantsMustMatch) {
  ConjunctiveQuery tom = MakeCq("h(Y)", "e(tom, Y).");
  ConjunctiveQuery ann = MakeCq("h(Y)", "e(ann, Y).");
  ConjunctiveQuery any = MakeCq("h(Y)", "e(X, Y).");
  EXPECT_FALSE(*Contains(tom, ann));
  EXPECT_TRUE(*Contains(any, tom));   // generalisation contains instance
  EXPECT_FALSE(*Contains(tom, any));
}

TEST(Containment, DistinguishedVariablesFixed) {
  // h(X) with body e(X): contained in h(X) with body e(Y)? The latter is
  // unsafe-ish (head var not in body) -> never contains anything.
  ConjunctiveQuery good = MakeCq("h(X)", "e(X).");
  ConjunctiveQuery detached = MakeCq("h(X)", "e(Y).");
  EXPECT_FALSE(*Contains(detached, good));
}

TEST(Containment, HeadArityMismatchRejected) {
  ConjunctiveQuery a = MakeCq("h(X)", "e(X).");
  ConjunctiveQuery b = MakeCq("h(X, X)", "e(X).");
  EXPECT_FALSE(Contains(a, b).ok());
}

TEST(Containment, EmptyBodyWithConstantHead) {
  ConjunctiveQuery constant;
  constant.head = {Term::Sym("a"), Term::Int(7)};
  ConjunctiveQuery same = MakeCq("h(a, 7)", "e(X, Y).");
  ConjunctiveQuery other = MakeCq("h(a, 8)", "e(X, Y).");
  ConjunctiveQuery open = MakeCq("h(a, Y)", "e(X, Y).");
  EXPECT_TRUE(*Contains(constant, same));
  EXPECT_FALSE(*Contains(constant, other));
  EXPECT_FALSE(*Contains(constant, open));
  EXPECT_TRUE(*Contains(constant, constant));
  ConjunctiveQuery boolean;
  EXPECT_TRUE(*Contains(boolean, boolean));
}

TEST(Containment, PredicateMissingFromSpecific) {
  ConjunctiveQuery general = MakeCq("h(X)", "e(X, Y). f(Y).");
  ConjunctiveQuery specific = MakeCq("h(X)", "e(X, Y). g(Y).");
  auto result = Contains(general, specific);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
}

TEST(Containment, ArityClashesAreErrors) {
  ConjunctiveQuery unary = MakeCq("h(X)", "e(X).");
  ConjunctiveQuery binary = MakeCq("h(X)", "e(X, X).");
  EXPECT_EQ(Contains(unary, binary).status().code(),
            StatusCode::kInvalidArgument);
  ConjunctiveQuery clash = MakeCq("h(X)", "e(X). e(X, X).");
  EXPECT_EQ(Contains(unary, clash).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Contains(clash, unary).status().code(),
            StatusCode::kInvalidArgument);
}

// e(X0, X1), e(X1, X2), ..., e(X{n-1}, Xn) with head (X0, Xn), optionally
// without the link that starts at X{skip}.
ConjunctiveQuery Chain(size_t n, size_t skip = SIZE_MAX) {
  ConjunctiveQuery q;
  for (size_t i = 0; i < n; ++i) {
    if (i == skip) continue;
    Atom atom;
    atom.predicate = "e";
    atom.args = {Term::Var(StrCat("X", i)), Term::Var(StrCat("X", i + 1))};
    q.atoms.push_back(std::move(atom));
  }
  q.head = {Term::Var("X0"), Term::Var(StrCat("X", n))};
  return q;
}

// The search keeps its own stack, so the input sets its depth and not the
// thread's.
TEST(Containment, LongChainNeedsNoRecursion) {
  ConjunctiveQuery chain = Chain(2000);
  ConjunctiveQuery broken = Chain(2000, /*skip=*/1000);
  EXPECT_TRUE(*Contains(chain, chain));
  EXPECT_FALSE(*Contains(chain, broken));
  // Every link of the broken chain is a link of the whole one.
  EXPECT_TRUE(*Contains(broken, chain));
}

// ---- Differential check against the canonical-database algorithm ---------

// The canonical-database test: freeze `specific` into a database (each
// variable becomes a fresh symbol) and evaluate `general` over it as a
// rule; `general` contains `specific` iff the answer holds `specific`'s
// frozen head.
StatusOr<bool> ReferenceContains(const ConjunctiveQuery& general,
                                 const ConjunctiveQuery& specific) {
  Database db;
  auto freeze = [&db](const Term& term) {
    if (term.IsVar()) return db.symbols().Intern(StrCat("$frz$", term.name));
    if (term.kind == Term::Kind::kInt) return Value::Int(term.int_value);
    return db.symbols().Intern(term.name);
  };
  for (const Atom& atom : specific.atoms) {
    SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                            db.CreateRelation(atom.predicate, atom.arity()));
    std::vector<Value> row;
    for (const Term& t : atom.args) row.push_back(freeze(t));
    rel->Insert(Row(row.data(), row.size()));
  }
  Rule rule;
  rule.head.predicate = "$ans";
  rule.head.args = general.head;
  std::set<std::string> body_vars;
  for (const Atom& atom : general.atoms) {
    rule.body.push_back(Literal::MakeAtom(atom));
    CollectVars(atom, &body_vars);
  }
  for (const Term& t : general.head) {
    if (t.IsVar() && !body_vars.count(t.name)) return false;
  }
  SEPREC_ASSIGN_OR_RETURN(RulePlan plan, RulePlan::Compile(rule, &db));
  Relation answers("$ans", general.head.size());
  plan.ExecuteInto(&answers);
  if (specific.head.size() != general.head.size()) {
    return InvalidArgumentError("head arities differ");
  }
  std::vector<Value> target;
  for (const Term& t : specific.head) target.push_back(freeze(t));
  return answers.Contains(Row(target.data(), target.size()));
}

// Random pairs over predicates of arity 1 and 2, with repeated variables,
// symbol and integer constants, head arities 0-2, and now and then a head
// arity mismatch or a predicate used at two arities. Half the pairs build
// `specific` as an image of `general` plus extra atoms, so that many are
// contained.
class PairGenerator {
 public:
  explicit PairGenerator(uint64_t seed) : rng_(seed) {}

  void Next(ConjunctiveQuery* general, ConjunctiveQuery* specific) {
    for (size_t& arity : arities_) arity = 1 + Below(2);
    size_t head_arity = Below(3);
    *general = RandomQuery(Below(5), head_arity);
    if (Below(2) == 0) {
      // An image of `general` under a random substitution, plus extras.
      std::map<std::string, Term> image;
      auto map_term = [&](const Term& t) {
        if (!t.IsVar()) return t;
        auto it = image.find(t.name);
        if (it == image.end()) it = image.emplace(t.name, RandomTerm()).first;
        return it->second;
      };
      specific->atoms.clear();
      for (const Atom& atom : general->atoms) {
        Atom mapped = atom;
        for (Term& t : mapped.args) t = map_term(t);
        specific->atoms.push_back(std::move(mapped));
      }
      ConjunctiveQuery extra = RandomQuery(Below(3), 0);
      for (Atom& atom : extra.atoms) specific->atoms.push_back(atom);
      std::shuffle(specific->atoms.begin(), specific->atoms.end(), rng_);
      specific->atoms.resize(std::min<size_t>(specific->atoms.size(), 6));
      specific->head.clear();
      for (const Term& t : general->head) specific->head.push_back(map_term(t));
    } else {
      *specific = RandomQuery(Below(7), head_arity);
    }
    if (Below(20) == 0) {
      specific->head.push_back(RandomTerm());  // head arities differ
    }
  }

 private:
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  Term RandomTerm() {
    static const char* kVars[] = {"X", "Y", "Z", "W"};
    switch (Below(10)) {
      case 0:
        return Term::Sym(Below(2) == 0 ? "a" : "b");
      case 1:
        return Term::Int(static_cast<int64_t>(Below(2)));
      default:
        return Term::Var(kVars[Below(4)]);
    }
  }

  ConjunctiveQuery RandomQuery(size_t atoms, size_t head_arity) {
    static const char* kPredicates[] = {"p", "q", "r"};
    ConjunctiveQuery q;
    std::vector<Term> vars;
    for (size_t i = 0; i < atoms; ++i) {
      size_t p = Below(3);
      Atom atom;
      atom.predicate = kPredicates[p];
      size_t arity = arities_[p];
      if (Below(40) == 0) arity = 3 - arity;  // the other arity
      for (size_t c = 0; c < arity; ++c) {
        atom.args.push_back(RandomTerm());
        if (atom.args.back().IsVar()) vars.push_back(atom.args.back());
      }
      q.atoms.push_back(std::move(atom));
    }
    for (size_t i = 0; i < head_arity; ++i) {
      if (!vars.empty() && Below(8) != 0) {
        q.head.push_back(vars[Below(vars.size())]);
      } else {
        q.head.push_back(RandomTerm());
      }
    }
    return q;
  }

  std::mt19937_64 rng_;
  size_t arities_[3] = {};  // of p, q and r in the current pair
};

std::string Describe(const ConjunctiveQuery& q) {
  std::vector<std::string> parts;
  for (const Atom& atom : q.atoms) parts.push_back(atom.ToString());
  std::vector<std::string> head;
  for (const Term& t : q.head) head.push_back(t.ToString());
  return StrCat("(", StrJoin(head, ", "), ") :- ", StrJoin(parts, ", "));
}

TEST(Containment, ZeroArityAtomsAgreeWithCanonicalDatabase) {
  Atom flag;
  flag.predicate = "flag";
  ConjunctiveQuery with_flag = MakeCq("h(X)", "e(X).");
  with_flag.atoms.push_back(flag);
  ConjunctiveQuery without = MakeCq("h(X)", "e(X).");
  for (const auto& [general, specific] :
       {std::pair{with_flag, with_flag}, std::pair{with_flag, without},
        std::pair{without, with_flag}}) {
    StatusOr<bool> got = Contains(general, specific);
    StatusOr<bool> want = ReferenceContains(general, specific);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want);
  }
  EXPECT_TRUE(*Contains(with_flag, with_flag));
  EXPECT_FALSE(*Contains(with_flag, without));
  EXPECT_TRUE(*Contains(without, with_flag));
}

TEST(Containment, AgreesWithCanonicalDatabaseOnRandomPairs) {
  PairGenerator gen(/*seed=*/20260);
  size_t contained = 0;
  size_t not_contained = 0;
  size_t errors = 0;
  for (size_t i = 0; i < 20000; ++i) {
    ConjunctiveQuery general;
    ConjunctiveQuery specific;
    gen.Next(&general, &specific);
    StatusOr<bool> got = Contains(general, specific);
    StatusOr<bool> want = ReferenceContains(general, specific);
    ASSERT_EQ(got.status().code(), want.status().code())
        << "pair " << i << ": " << Describe(general) << " vs "
        << Describe(specific) << ": " << got.status().ToString() << " / "
        << want.status().ToString();
    if (!want.ok()) {
      ++errors;
      continue;
    }
    ASSERT_EQ(*got, *want) << "pair " << i << ": " << Describe(general)
                           << " vs " << Describe(specific);
    ++(*want ? contained : not_contained);
  }
  // Every outcome is well represented, so agreement means something.
  EXPECT_GT(contained, 2000u);
  EXPECT_GT(not_contained, 2000u);
  EXPECT_GT(errors, 200u);
}

// ---- Theorem 2.1 -----------------------------------------------------------

// Projection of a derivation onto an equivalence class: the subsequence of
// its rule indices belonging to that class.
std::vector<std::vector<size_t>> ClassProjections(
    const SeparableRecursion& sep, const std::vector<size_t>& derivation) {
  std::vector<std::vector<size_t>> projections(sep.classes.size());
  for (size_t rule : derivation) {
    projections[sep.class_of_rule[rule]].push_back(rule);
  }
  return projections;
}

TEST(Theorem21, EqualClassProjectionsDefineSameRelation) {
  // Example 1.2 has two classes; derivations that interleave the classes
  // differently but keep each class's subsequence equal must be
  // equivalent conjunctive queries.
  Program program = Example12Program();
  auto sep = AnalyzeSeparable(program, "buys");
  ASSERT_TRUE(sep.ok());
  Atom query = ParseAtomOrDie("buys(X, Y)");
  auto exp = Expand(program, query, 4);
  ASSERT_TRUE(exp.ok());

  std::map<std::vector<std::vector<size_t>>, std::vector<size_t>> groups;
  for (size_t i = 0; i < exp->size(); ++i) {
    groups[ClassProjections(*sep, (*exp)[i].derivation)].push_back(i);
  }

  size_t nontrivial_groups = 0;
  size_t pairs_checked = 0;
  for (const auto& [projection, members] : groups) {
    if (members.size() < 2) continue;
    ++nontrivial_groups;
    ConjunctiveQuery first = FromExpansion((*exp)[members[0]], query);
    for (size_t i = 1; i < members.size(); ++i) {
      ConjunctiveQuery other = FromExpansion((*exp)[members[i]], query);
      auto equivalent = Equivalent(first, other);
      ASSERT_TRUE(equivalent.ok());
      EXPECT_TRUE(*equivalent)
          << "strings differ:\n  " << (*exp)[members[0]].ToString()
          << "\n  " << (*exp)[members[i]].ToString();
      ++pairs_checked;
    }
  }
  // Depth 4 over 2 classes has many interleavings: e.g. derivations
  // [0 1], [1 0] share projections ([0], [1]).
  EXPECT_GE(nontrivial_groups, 3u);
  EXPECT_GE(pairs_checked, 5u);
}

TEST(Theorem21, DifferentProjectionsUsuallyDiffer) {
  Program program = Example12Program();
  Atom query = ParseAtomOrDie("buys(X, Y)");
  auto exp = Expand(program, query, 2);
  ASSERT_TRUE(exp.ok());
  // derivation [0] (one friend hop) vs [0,0] (two): not equivalent.
  const ExpansionString* one = nullptr;
  const ExpansionString* two = nullptr;
  for (const ExpansionString& s : *exp) {
    if (s.derivation == std::vector<size_t>{0}) one = &s;
    if (s.derivation == std::vector<size_t>{0, 0}) two = &s;
  }
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  auto equivalent = Equivalent(FromExpansion(*one, query),
                               FromExpansion(*two, query));
  ASSERT_TRUE(equivalent.ok());
  EXPECT_FALSE(*equivalent);
}

TEST(Theorem21, HoldsOnThreeClassRecursion) {
  Program p = ParseProgramOrDie(
      "t(A, B, C) :- f(A, W) & t(W, B, C).\n"
      "t(A, B, C) :- g(B, W) & t(A, W, C).\n"
      "t(A, B, C) :- h(C, W) & t(A, B, W).\n"
      "t(A, B, C) :- t0(A, B, C).");
  auto sep = AnalyzeSeparable(p, "t");
  ASSERT_TRUE(sep.ok());
  Atom query = ParseAtomOrDie("t(A, B, C)");
  auto exp = Expand(p, query, 3);
  ASSERT_TRUE(exp.ok());
  std::map<std::vector<std::vector<size_t>>, std::vector<size_t>> groups;
  for (size_t i = 0; i < exp->size(); ++i) {
    groups[ClassProjections(*sep, (*exp)[i].derivation)].push_back(i);
  }
  size_t checked = 0;
  for (const auto& [projection, members] : groups) {
    for (size_t i = 1; i < members.size(); ++i) {
      auto equivalent =
          Equivalent(FromExpansion((*exp)[members[0]], query),
                     FromExpansion((*exp)[members[i]], query));
      ASSERT_TRUE(equivalent.ok());
      EXPECT_TRUE(*equivalent);
      ++checked;
    }
  }
  EXPECT_GE(checked, 10u);
}

}  // namespace
}  // namespace seprec
