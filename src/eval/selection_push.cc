#include "eval/selection_push.h"

#include <set>
#include <string>

#include "core/query.h"
#include "core/support.h"
#include "datalog/analysis.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seprec {

StatusOr<std::vector<uint32_t>> StablePositions(const Program& program,
                                                std::string_view predicate) {
  SEPREC_ASSIGN_OR_RETURN(LinearRecursion rec,
                          ExtractLinearRecursion(program, predicate));
  std::vector<uint32_t> stable;
  for (uint32_t p = 0; p < rec.arity; ++p) {
    bool ok = true;
    for (size_t r = 0; r < rec.recursive_rules.size(); ++r) {
      const Atom& body_t = rec.RecursiveBodyAtom(r);
      const Term& arg = body_t.args[p];
      if (!(arg.IsVar() && arg.name == rec.head_vars[p])) {
        ok = false;
        break;
      }
    }
    if (ok) stable.push_back(p);
  }
  return stable;
}

Rule SpecializeToSelection(const Rule& rule, const Atom& query) {
  // A constant cannot be the target of `V is E`, and binding the
  // aggregated variable would change the aggregate itself.
  std::set<std::string> assigned;
  for (const Literal& lit : rule.body) {
    if (lit.kind == Literal::Kind::kAssign) assigned.insert(lit.assign_var);
  }
  if (rule.aggregate.has_value()) assigned.insert(rule.aggregate->over_var);

  Substitution push;
  for (size_t p = 0; p < query.arity() && p < rule.head.arity(); ++p) {
    const Term& arg = rule.head.args[p];
    if (!query.args[p].IsConstant() || !arg.IsVar() ||
        assigned.count(arg.name)) {
      continue;
    }
    push.emplace(arg.name, query.args[p]);
  }
  return push.empty() ? rule : Substitute(rule, push);
}

StatusOr<SelectionPushResult> EvaluateWithSelectionPush(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options) {
  SEPREC_ASSIGN_OR_RETURN(LinearRecursion rec,
                          ExtractLinearRecursion(program, query.predicate));
  if (query.arity() != rec.arity) {
    return InvalidArgumentError(
        StrCat("query arity ", query.arity(), " does not match '",
               query.predicate, "'/", rec.arity));
  }
  SEPREC_ASSIGN_OR_RETURN(std::vector<uint32_t> stable,
                          StablePositions(program, query.predicate));
  std::set<uint32_t> stable_set(stable.begin(), stable.end());

  size_t bound = 0;
  for (uint32_t p = 0; p < rec.arity; ++p) {
    if (!query.args[p].IsConstant()) continue;
    ++bound;
    if (!stable_set.count(p)) {
      return FailedPreconditionError(
          StrCat("position ", p, " of '", query.predicate,
                 "' is not stable; AU79 selection pushing does not apply"));
    }
  }
  if (bound == 0) {
    return FailedPreconditionError("query has no selection to push");
  }

  SelectionPushResult result;
  result.answer = Answer(query.arity());
  result.stats.algorithm = "selection-push";
  WallTimer timer;

  // Specialise the recursion: substitute the constants into every rule
  // (stable positions carry the same variable in head and body atom, so
  // one substitution handles both) and rename the predicate so the
  // selected fixpoint does not collide with an unselected one.
  const std::string selected = StrCat("pushed_", query.predicate);
  auto rename = [&](Atom atom) {
    if (atom.predicate == query.predicate) atom.predicate = selected;
    return atom;
  };
  for (const std::vector<Rule>* rules :
       {&rec.recursive_rules, &rec.exit_rules}) {
    for (const Rule& rule : *rules) {
      Rule specialised = SpecializeToSelection(rule, query);
      specialised.head = rename(specialised.head);
      for (Literal& lit : specialised.body) {
        if (lit.kind == Literal::Kind::kAtom) {
          lit.atom = rename(lit.atom);
        }
      }
      result.specialized.rules.push_back(std::move(specialised));
    }
  }

  SEPREC_RETURN_IF_ERROR(MaterializeSupport(program, query.predicate, db,
                                            options, &result.stats));
  SEPREC_RETURN_IF_ERROR(EvaluateSemiNaive(result.specialized, db, options,
                                           &result.stats));

  const Relation* rel = db->Find(selected);
  if (rel != nullptr) {
    Atom select = query;
    select.predicate = selected;
    Answer matched = SelectMatching(*rel, select, db->symbols());
    for (size_t i = 0; i < matched.size(); ++i) {
      result.answer.Add(matched.row(i));
    }
  }
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace seprec
