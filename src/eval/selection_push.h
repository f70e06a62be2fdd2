// Selection pushing into fixpoints [Aho & Ullman 1979], one of the
// paper's related-work comparators.
//
// When a query binds only *stable* argument positions of a linear
// recursion — positions whose variable every recursive rule passes
// through unchanged from head to recursive body atom — the selection
// commutes with the fixpoint: substituting the constants into every rule
// before evaluating yields exactly the selected tuples.
//
// On separable recursions stable positions are precisely t|pers, so this
// reproduces the dummy-equivalence-class case of the Separable algorithm
// (the paper notes AU79 and Separable overlap there while neither
// subsumes the other: AU79 also applies to some non-separable recursions,
// but not to selections on class columns).
#ifndef SEPREC_EVAL_SELECTION_PUSH_H_
#define SEPREC_EVAL_SELECTION_PUSH_H_

#include <vector>

#include "core/answer.h"
#include "datalog/ast.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

// Positions of `predicate` that are stable in `program` (every defining
// recursive rule passes the head variable unchanged to the same position
// of the recursive body atom). Non-recursive predicates have every
// position stable. Fails if `predicate` is not IDB or not linear.
StatusOr<std::vector<uint32_t>> StablePositions(const Program& program,
                                                std::string_view predicate);

// Specialises `rule`, one of the rules defining `query`'s predicate, to
// the query's selection: each constant of `query` replaces the rule-head
// variable at its position, in the head and the body alike. A variable
// the rule assigns (`V is E`) or aggregates is left a variable, so the
// rule stays general at that position and the caller's final selection
// (SelectMatching) filters its output, as it does for a head constant
// and for a head variable the query binds twice. Where `rule` is
// recursive, every bound position must be stable (StablePositions).
Rule SpecializeToSelection(const Rule& rule, const Atom& query);

struct SelectionPushResult {
  Answer answer{0};
  EvalStats stats;
  Program specialized;  // the rewritten program, for inspection
};

// Answers `query` by pushing its constants into the fixpoint. Fails with
// FAILED_PRECONDITION if the query binds a non-stable position (AU79 does
// not apply there).
StatusOr<SelectionPushResult> EvaluateWithSelectionPush(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options = {});

}  // namespace seprec

#endif  // SEPREC_EVAL_SELECTION_PUSH_H_
