#include "counting/counting_transform.h"

#include <set>

#include "datalog/analysis.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// Reserved variable names for the counting indices; canonicalized rules
// only use V<i> / Q<i>_<j> names, so these can never collide.
constexpr char kLevel[] = "CI";
constexpr char kLevelNext[] = "CI1";
constexpr char kPath[] = "CK";
constexpr char kPathNext[] = "CK1";
constexpr char kDigit[] = "CD";

std::string UniquePredicateName(std::string base,
                                const std::set<std::string>& taken) {
  while (taken.count(base)) base += "_";
  return base;
}

Expr VarExpr(const char* name) { return Expr::Leaf(Term::Var(name)); }
Expr IntExpr(int64_t v) { return Expr::Leaf(Term::Int(v)); }

}  // namespace

StatusOr<CountingRewrite> CountingTransform(const Program& program,
                                            const Atom& query) {
  SEPREC_ASSIGN_OR_RETURN(LinearRecursion rec,
                          ExtractLinearRecursion(program, query.predicate));
  if (rec.arity != query.arity()) {
    return InvalidArgumentError(
        StrCat("query arity ", query.arity(), " does not match '",
               query.predicate, "'/", rec.arity));
  }
  if (rec.recursive_rules.empty()) {
    return FailedPreconditionError(
        StrCat("'", query.predicate, "' is not recursive"));
  }

  CountingRewrite out;
  out.arity = rec.arity;
  for (uint32_t i = 0; i < rec.arity; ++i) {
    if (query.args[i].IsConstant()) {
      out.bound_positions.push_back(i);
    } else {
      out.free_positions.push_back(i);
    }
  }
  if (out.bound_positions.empty()) {
    return FailedPreconditionError("counting requires a selection constant");
  }

  std::set<std::string> taken;
  for (const Rule& rule : program.rules) {
    taken.insert(rule.head.predicate);
    for (const Atom* atom : rule.BodyAtoms()) taken.insert(atom->predicate);
  }
  out.count_predicate =
      UniquePredicateName(StrCat("count_", query.predicate), taken);
  taken.insert(out.count_predicate);
  out.sup_predicate =
      UniquePredicateName(StrCat("sup_", query.predicate), taken);
  taken.insert(out.sup_predicate);
  out.ans_predicate =
      UniquePredicateName(StrCat("ans_", query.predicate), taken);

  const int64_t base = static_cast<int64_t>(rec.recursive_rules.size()) + 1;

  // Variable vectors for the four column layouts.
  auto head_vars_at = [&rec](const std::vector<uint32_t>& positions) {
    std::vector<Term> vars;
    for (uint32_t p : positions) vars.push_back(Term::Var(rec.head_vars[p]));
    return vars;
  };
  auto body_vars_at = [](const Atom& body_t,
                         const std::vector<uint32_t>& positions) {
    std::vector<Term> vars;
    for (uint32_t p : positions) vars.push_back(body_t.args[p]);
    return vars;
  };
  out.uses_path_index = rec.recursive_rules.size() > 1;
  const bool path = out.uses_path_index;

  // A recursive atom whose bound arguments are all bound head variables
  // passes the selection's values on unchanged (or permuted), so its
  // descent adds a count level every round whatever the data and never
  // ends.
  std::set<std::string> bound_head;
  for (uint32_t p : out.bound_positions) bound_head.insert(rec.head_vars[p]);
  for (size_t i = 0; i < rec.recursive_rules.size(); ++i) {
    const Atom& body_t = rec.RecursiveBodyAtom(i);
    bool stays = true;
    for (uint32_t p : out.bound_positions) {
      const Term& arg = body_t.args[p];
      if (!arg.IsVar() || !bound_head.count(arg.name)) stays = false;
    }
    if (stays) {
      return FailedPreconditionError(
          StrCat("the recursive atom passes the bound columns unchanged, so "
                 "the counting descent never ends: ",
                 rec.recursive_rules[i].ToString()));
    }
  }

  // Builds pred(<level>, [<path>,] rest...) — the path column exists only
  // in the generalized (p > 1) method.
  auto make_atom = [path](const std::string& pred, Term level, Term key,
                          std::vector<Term> rest) {
    Atom atom;
    atom.predicate = pred;
    atom.args.push_back(std::move(level));
    if (path) atom.args.push_back(std::move(key));
    for (Term& t : rest) atom.args.push_back(std::move(t));
    return atom;
  };

  // Seed: count(0, [0,] query constants).
  {
    std::vector<Term> constants;
    for (uint32_t p : out.bound_positions) constants.push_back(query.args[p]);
    Rule seed;
    seed.head = make_atom(out.count_predicate, Term::Int(0), Term::Int(0),
                          std::move(constants));
    out.program.rules.push_back(std::move(seed));
  }

  for (size_t i = 0; i < rec.recursive_rules.size(); ++i) {
    const Rule& rule = rec.recursive_rules[i];
    const Atom& body_t = rec.RecursiveBodyAtom(i);
    const int64_t digit = static_cast<int64_t>(i) + 1;

    // The recursive body atom must apply the recursion to plain distinct
    // variables for the descent/ascent split to be meaningful.
    std::set<std::string> body_t_vars;
    for (const Term& arg : body_t.args) {
      if (!arg.IsVar() || !body_t_vars.insert(arg.name).second) {
        return FailedPreconditionError(
            StrCat("recursive atom has constants or repeated variables: ",
                   rule.ToString()));
      }
    }

    // Bound side / free side variable sets.
    std::set<std::string> bound_side;
    std::set<std::string> free_side;
    for (uint32_t p : out.bound_positions) {
      bound_side.insert(rec.head_vars[p]);
      bound_side.insert(body_t.args[p].name);
    }
    for (uint32_t p : out.free_positions) {
      free_side.insert(rec.head_vars[p]);
      free_side.insert(body_t.args[p].name);
    }
    for (const std::string& v : bound_side) {
      if (free_side.count(v)) {
        return FailedPreconditionError(
            StrCat("variable '", v,
                   "' links the bound and free columns of rule: ",
                   rule.ToString()));
      }
    }

    // Split the nonrecursive literals into descent (A) and ascent (C)
    // parts by connected component.
    std::vector<Literal> others;
    for (size_t j = 0; j < rule.body.size(); ++j) {
      if (j != rec.recursive_atom_index[i]) others.push_back(rule.body[j]);
    }
    size_t num_components = 0;
    std::vector<size_t> component = ConnectedComponents(others,
                                                        &num_components);
    std::vector<bool> touches_bound(num_components, false);
    std::vector<bool> touches_free(num_components, false);
    for (size_t j = 0; j < others.size(); ++j) {
      std::set<std::string> vars;
      CollectVars(others[j], &vars);
      for (const std::string& v : vars) {
        if (bound_side.count(v)) touches_bound[component[j]] = true;
        if (free_side.count(v)) touches_free[component[j]] = true;
      }
    }
    std::vector<Literal> descent_lits;
    std::vector<Literal> ascent_lits;
    for (size_t j = 0; j < others.size(); ++j) {
      size_t c = component[j];
      if (touches_bound[c] && touches_free[c]) {
        return FailedPreconditionError(
            StrCat("nonrecursive literals connect the bound and free "
                   "columns in rule: ",
                   rule.ToString()));
      }
      // Components touching neither side gate the derivation; evaluate
      // them on the descent.
      if (touches_free[c]) {
        ascent_lits.push_back(others[j]);
      } else {
        descent_lits.push_back(others[j]);
      }
    }

    // Descent: count(I+1, K*base+digit, bodyB) :- count(I, K, headB), A_i.
    {
      Rule descend;
      descend.head =
          make_atom(out.count_predicate, Term::Var(kLevelNext),
                    Term::Var(kPathNext),
                    body_vars_at(body_t, out.bound_positions));
      descend.body.push_back(Literal::MakeAtom(
          make_atom(out.count_predicate, Term::Var(kLevel), Term::Var(kPath),
                    head_vars_at(out.bound_positions))));
      for (const Literal& lit : descent_lits) descend.body.push_back(lit);
      descend.body.push_back(Literal::MakeAssign(
          kLevelNext,
          Expr::Binary(Expr::Op::kAdd, VarExpr(kLevel), IntExpr(1))));
      if (path) {
        descend.body.push_back(Literal::MakeAssign(
            kPathNext,
            Expr::Binary(Expr::Op::kAdd,
                         Expr::Binary(Expr::Op::kMul, VarExpr(kPath),
                                      IntExpr(base)),
                         IntExpr(digit))));
      }
      SEPREC_RETURN_IF_ERROR(CheckSafety(Program{{descend}}));
      out.program.rules.push_back(std::move(descend));
    }

    // Ascent: sup(I-1, K div base, headF) :- sup(I, K, bodyF), C_i,
    //         K mod base = digit.
    {
      Rule ascend;
      ascend.head = make_atom(out.sup_predicate, Term::Var(kLevelNext),
                              Term::Var(kPathNext),
                              head_vars_at(out.free_positions));
      ascend.body.push_back(Literal::MakeAtom(
          make_atom(out.sup_predicate, Term::Var(kLevel), Term::Var(kPath),
                    body_vars_at(body_t, out.free_positions))));
      for (const Literal& lit : ascent_lits) ascend.body.push_back(lit);
      // Replay exactly `level` steps: never ascend past the seed.
      ascend.body.push_back(
          Literal::MakeCompare(CmpOp::kGt, Term::Var(kLevel), Term::Int(0)));
      if (path) {
        ascend.body.push_back(Literal::MakeAssign(
            kDigit,
            Expr::Binary(Expr::Op::kMod, VarExpr(kPath), IntExpr(base))));
        ascend.body.push_back(Literal::MakeCompare(
            CmpOp::kEq, Term::Var(kDigit), Term::Int(digit)));
      }
      ascend.body.push_back(Literal::MakeAssign(
          kLevelNext,
          Expr::Binary(Expr::Op::kSub, VarExpr(kLevel), IntExpr(1))));
      if (path) {
        ascend.body.push_back(Literal::MakeAssign(
            kPathNext,
            Expr::Binary(Expr::Op::kDiv, VarExpr(kPath), IntExpr(base))));
      }
      SEPREC_RETURN_IF_ERROR(CheckSafety(Program{{ascend}}));
      out.program.rules.push_back(std::move(ascend));
    }
  }

  // Pivot: sup(I, K, headF) :- count(I, K, headB), exit body.
  for (const Rule& exit : rec.exit_rules) {
    Rule pivot;
    pivot.head = make_atom(out.sup_predicate, Term::Var(kLevel),
                           Term::Var(kPath),
                           head_vars_at(out.free_positions));
    pivot.body.push_back(Literal::MakeAtom(
        make_atom(out.count_predicate, Term::Var(kLevel), Term::Var(kPath),
                  head_vars_at(out.bound_positions))));
    for (const Literal& lit : exit.body) pivot.body.push_back(lit);
    SEPREC_RETURN_IF_ERROR(CheckSafety(Program{{pivot}}));
    out.program.rules.push_back(std::move(pivot));
  }

  // Answers: ans(headF) :- sup(0, 0, headF).
  {
    Rule answers;
    answers.head.predicate = out.ans_predicate;
    for (const Term& t : head_vars_at(out.free_positions)) {
      answers.head.args.push_back(t);
    }
    answers.body.push_back(Literal::MakeAtom(
        make_atom(out.sup_predicate, Term::Int(0), Term::Int(0),
                  head_vars_at(out.free_positions))));
    out.program.rules.push_back(std::move(answers));
  }

  return out;
}

}  // namespace seprec
