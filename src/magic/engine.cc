#include "magic/engine.h"

#include "core/query.h"
#include "core/support.h"
#include "eval/engine_run.h"

namespace seprec {

StatusOr<MagicRunResult> EvaluateWithMagic(const Program& program,
                                           const Atom& query, Database* db,
                                           const FixpointOptions& options,
                                           const MagicOptions& magic_options) {
  MagicRunResult result;
  result.answer = Answer(query.arity());
  SEPREC_ASSIGN_OR_RETURN(result.rewrite,
                          MagicTransform(program, query, magic_options));
  result.stats.algorithm = "magic";
  // Negated and aggregate-defined IDB predicates are read as base
  // relations by the rewrite; materialise them (and dependencies) first.
  std::set<std::string> base_like = NegatedIdbPredicates(program);
  for (const std::string& pred : AggregatePredicates(program)) {
    base_like.insert(pred);
  }
  EngineRun run("magic", options, db, &result.stats);
  FixpointOptions nested = run.Nested("magic/");
  if (!base_like.empty()) {
    SEPREC_RETURN_IF_ERROR(MaterializePredicates(program, base_like, db,
                                                 nested, &result.stats));
  }
  // Legacy (ungoverned) callers see a trip as an error here, before the
  // answer harvest; governed callers get the partial answer back.
  SEPREC_RETURN_IF_ERROR(run.Finish(EvaluateSemiNaive(
      result.rewrite.program, db, nested, &result.stats)));
  const Relation* answers = db->Find(result.rewrite.answer_predicate);
  if (answers != nullptr) {
    result.answer = SelectMatching(*answers, result.rewrite.rewritten_query,
                                   db->symbols());
  }
  return result;
}

}  // namespace seprec
