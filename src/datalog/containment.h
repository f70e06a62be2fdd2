// Conjunctive-query containment by containment mappings [Chandra &
// Merlin 1977] — the machinery behind the paper's Theorem 2.1 proof: two
// expansion strings define the same relation iff there are containment
// mappings both ways.
//
// A conjunctive query here is a set of positive atoms plus a tuple of
// distinguished terms (the head). Query A *contains* query B (every
// answer of B is an answer of A on every database) iff there is a
// containment mapping from A's atoms to B's atoms that takes A's head to
// B's head. Contains searches for one directly: it maps the head, then
// each atom of A onto an atom of B with the same predicate, backtracking
// on an explicit stack, so no database is built and the input never sets
// the depth of the thread's stack.
#ifndef SEPREC_DATALOG_CONTAINMENT_H_
#define SEPREC_DATALOG_CONTAINMENT_H_

#include <vector>

#include "datalog/ast.h"
#include "datalog/expand.h"
#include "util/status.h"

namespace seprec {

struct ConjunctiveQuery {
  std::vector<Atom> atoms;
  std::vector<Term> head;  // distinguished variables and/or constants
};

// True iff `general` contains `specific` (a containment mapping
// general -> specific exists). INVALID_ARGUMENT when the head arities
// differ or a predicate is used at two arities; false when a head
// variable of `general` occurs in none of its atoms or `general` uses a
// predicate that `specific` does not.
StatusOr<bool> Contains(const ConjunctiveQuery& general,
                        const ConjunctiveQuery& specific);

// Containment both ways: the two queries define the same relation.
StatusOr<bool> Equivalent(const ConjunctiveQuery& a,
                          const ConjunctiveQuery& b);

// Convenience: wraps an expansion string (from Expand) with the original
// query atom's arguments as the head.
ConjunctiveQuery FromExpansion(const ExpansionString& s, const Atom& query);

}  // namespace seprec

#endif  // SEPREC_DATALOG_CONTAINMENT_H_
