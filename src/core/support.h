// Support materialisation: evaluating the sub-program a recursive
// predicate depends on, so specialised engines (Separable, Counting) can
// treat every body predicate other than the recursion itself as base data.
#ifndef SEPREC_CORE_SUPPORT_H_
#define SEPREC_CORE_SUPPORT_H_

#include <string_view>

#include "datalog/ast.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

// Materialises (via semi-naive evaluation) every IDB predicate that
// `predicate` transitively depends on, excluding `predicate` itself.
// Statistics are accumulated into `stats` when non-null.
Status MaterializeSupport(const Program& program, std::string_view predicate,
                          Database* db, const FixpointOptions& options = {},
                          EvalStats* stats = nullptr);

// MaterializeSupport in two steps, for a compiled query that evaluates
// the same support on every request: SupportProgram selects the rules
// once (none when the recursion reads only base relations), and
// EvaluateSupport runs them (nothing when there are none).
StatusOr<Program> SupportProgram(const Program& program,
                                 std::string_view predicate);
Status EvaluateSupport(const Program& support, Database* db,
                       const FixpointOptions& options = {},
                       EvalStats* stats = nullptr);

// Materialises the given predicates themselves plus everything they
// transitively depend on. Used by the Magic drivers for predicates that
// occur negated (the rewrite treats them as base relations).
Status MaterializePredicates(const Program& program,
                             const std::set<std::string>& predicates,
                             Database* db, const FixpointOptions& options = {},
                             EvalStats* stats = nullptr);

// The IDB predicates occurring in a negated body literal anywhere in
// `program`.
std::set<std::string> NegatedIdbPredicates(const Program& program);

// Predicates defined by at least one aggregate rule. Like negated
// predicates, the Magic rewrites treat these as base relations.
std::set<std::string> AggregatePredicates(const Program& program);

}  // namespace seprec

#endif  // SEPREC_CORE_SUPPORT_H_
