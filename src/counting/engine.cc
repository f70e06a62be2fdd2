#include "counting/engine.h"

#include <optional>
#include <vector>

#include "core/query.h"
#include "core/support.h"
#include "eval/engine_run.h"

namespace seprec {

StatusOr<CountingRunResult> EvaluateWithCounting(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options) {
  CountingRunResult result;
  result.answer = Answer(query.arity());
  result.stats.algorithm = "counting";
  SEPREC_ASSIGN_OR_RETURN(result.rewrite, CountingTransform(program, query));

  EngineRun run("counting", options, db, &result.stats);
  FixpointOptions nested = run.Nested("counting/");
  SEPREC_RETURN_IF_ERROR(MaterializeSupport(program, query.predicate, db,
                                            nested, &result.stats));
  // Legacy (ungoverned) callers see a trip as an error here, before any
  // answer reconstruction; governed callers get the partial answer back.
  SEPREC_RETURN_IF_ERROR(run.Finish(EvaluateSemiNaive(
      result.rewrite.program, db, nested, &result.stats)));

  // Reconstruct full-arity answers: query constants at bound positions,
  // ans-relation values at free positions.
  const Relation* ans = db->Find(result.rewrite.ans_predicate);
  if (ans == nullptr) return result;

  std::vector<Value> constants;
  for (uint32_t p : result.rewrite.bound_positions) {
    const Term& arg = query.args[p];
    constants.push_back(arg.kind == Term::Kind::kInt
                            ? Value::Int(arg.int_value)
                            : db->symbols().Intern(arg.name));
  }
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  if (!resolvable) return result;

  std::vector<Value> full(query.arity());
  for (size_t r = 0; r < ans->size(); ++r) {
    Row row = ans->row(r);
    for (size_t i = 0; i < result.rewrite.bound_positions.size(); ++i) {
      full[result.rewrite.bound_positions[i]] = constants[i];
    }
    for (size_t i = 0; i < result.rewrite.free_positions.size(); ++i) {
      full[result.rewrite.free_positions[i]] = row[i];
    }
    // Repeated query variables must still agree.
    if (RowMatchesQuery(Row(full.data(), full.size()), query,
                        query_constants)) {
      result.answer.Add(Row(full.data(), full.size()));
    }
  }
  return result;
}

}  // namespace seprec
