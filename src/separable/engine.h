// The Separable evaluation algorithm (Section 3.3, Figure 2) and its
// partial-selection driver (Lemma 2.1).
//
// Full selections run the two-loop carry/seen schema directly:
//
//   phase 1: starting from the selection constants, close the anchor
//            equivalence class top-down (seen_1 = every value reachable in
//            the anchor columns) — skipped when the selection constants sit
//            in persistent columns (the paper's dummy equivalence class);
//   phase 2: join seen_1 with the exit relation(s), then close the
//            remaining equivalence classes bottom-up (seen_2 = the answer
//            columns).
//
// Partial selections are evaluated as the union of full selections the
// Lemma 2.1 rewrite produces: one run over the recursion with the partially
// bound class removed (its columns become persistent), plus, for each rule
// of that class, full runs seeded through that rule's nonrecursive body
// (sideways information passing binds the whole class).
//
// The aux relations carry_1/seen_1/carry_2/seen_2 are monadic-or-narrower
// per Lemma 4.1 — their sizes, reported in EvalStats, are the paper's
// comparison metric.
#ifndef SEPREC_SEPARABLE_ENGINE_H_
#define SEPREC_SEPARABLE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/answer.h"
#include "datalog/ast.h"
#include "eval/fixpoint.h"
#include "separable/detection.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

struct SeparableRunResult {
  Answer answer{0};
  EvalStats stats;

  // True when the query was a partial selection and the Lemma 2.1
  // union-of-full-selections driver ran.
  bool used_partial_rewrite = false;
  // Number of full-selection schema executions (1 for a full selection).
  size_t schema_runs = 0;
};

// Answers `query` (which must contain at least one constant) over the
// separable definition of its predicate in `program`. Support predicates
// (anything the recursion's bodies mention) are materialised first.
StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options = {});

// As above but with a pre-computed analysis (used by the query processor
// and benches to avoid re-detection).
StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const SeparableRecursion& sep, const Atom& query,
    Database* db, const FixpointOptions& options = {});

// Selection classification for a query against a separable recursion
// (Definition 2.7).
enum class SelectionKind {
  kNoConstants,  // no selection at all; Separable does not apply
  kFull,         // binds a persistent column or a whole class
  kPartial,      // binds a proper nonempty subset of some class only
};
SelectionKind ClassifySelection(const SeparableRecursion& sep,
                                const Atom& query);

// Renders the instantiated evaluation schema for `query` in the style of
// the paper's Figures 3 and 4 (init/while/endwhile pseudo-code).
StatusOr<std::string> ExplainSchema(const SeparableRecursion& sep,
                                    const Atom& query);

// The phase-1 closure of one full-selection run: every seen_1 row (anchor-
// column values, width |anchor positions|) reachable from the selection
// constants. Phase 1 is the only part of a full-selection run that depends
// on BOTH the selection constants and the stored data, so caching its
// closure lets a repeated selection skip straight to phase 2. A closure is
// valid for (same program, same bound positions, same constants, same
// database generation); the query service keys its closure cache exactly
// so. The rows hold interned Values — symbol ids are never reassigned, so
// they stay meaningful for the owning SymbolTable's lifetime.
struct Phase1Closure {
  std::vector<std::vector<Value>> rows;
};

// How a cached phase-1 closure can be kept exact under EDB mutation,
// classified from the compiled selection shape alone.
enum class ClosureMaintainability {
  // Persistent-column anchor (the paper's dummy equivalence class): the
  // closure is exactly {selection constants}, independent of the data.
  // Nothing to maintain — the cached rows stay valid across any mutation.
  kConstant,
  // The phase-1 rules read only base (non-IDB) relations through positive
  // literals: the closure is the least fixpoint of a positive Datalog
  // program over those relations, so an IncrementalEngine can patch it by
  // semi-naive delta insertion and DRed deletion.
  kMaintainable,
  // A phase-1 body references a support (IDB) predicate or a negated
  // literal: base mutations reach the closure through a derived relation
  // the maintenance program cannot track. Fall back to invalidation.
  kNone,
};

// The closure-as-Datalog-program export for one concrete selection: the
// program whose least fixpoint (with `seed_name` = {seed_row}) is exactly
// the phase-1 closure seen_1. `program` is empty for kConstant/kNone.
struct ClosureMaintenance {
  ClosureMaintainability kind = ClosureMaintainability::kNone;
  // $<prefix>c(X..) :- $<prefix>seed(X..).
  // $<prefix>c(body anchor cols) :- $<prefix>c(head anchor cols), <lits>.
  //   — one per anchor-class rule (MakePhase1Rule with carry == out).
  Program program;
  std::string closure_name;  // "$<prefix>c", arity = anchor width
  std::string seed_name;     // "$<prefix>seed", same arity
  std::vector<Value> seed_row;  // the query's anchor-position constants
  // Base relations the phase-1 rules read: mutations to any other
  // relation leave the closure untouched.
  std::vector<std::string> base_relations;
};

// A full-selection Figure-2 schema compiled once and executed many times —
// the evaluate-many half of the paper's compile/evaluate split, packaged
// for the query service's prepared-query cache.
//
// Compile instantiates the schema for the selection SHAPE of `query` (its
// predicate and bound-position set; the constants are ignored) and binds
// the synthetic rules' plans against `db`, creating persistent
// '$sep*'-scratch relations there. The object is therefore tied to `db`:
// it must be destroyed before the database, and the relations its plans
// bind (EDB, support IDB, scratch) must not be Dropped while it lives —
// emptying and refilling them is fine. PreparedQuery compiles it into the
// overlay it owns, which it empties after every execution.
//
// Execute answers one concrete selection of that shape. With `reuse`, the
// phase-1 loop is skipped entirely and seen_1 is seeded from the cached
// closure; with `capture`, a run whose phase 1 completed (no governor trip
// during the loop) writes the closure out for caching.
//
// Not thread-safe; the service serialises Execute with every other
// database writer.
class PreparedSeparable {
 public:
  static StatusOr<std::unique_ptr<PreparedSeparable>> Compile(
      const Program& program, const SeparableRecursion& sep,
      const Atom& query, Database* db);
  ~PreparedSeparable();
  PreparedSeparable(const PreparedSeparable&) = delete;
  PreparedSeparable& operator=(const PreparedSeparable&) = delete;

  // `query` must have the predicate and bound-position set given at
  // Compile time. Support predicates are re-materialised first (the
  // owning overlay is emptied after every request).
  StatusOr<SeparableRunResult> Execute(const Atom& query,
                                       const FixpointOptions& options = {},
                                       const Phase1Closure* reuse = nullptr,
                                       Phase1Closure* capture = nullptr);

  // True when `query` matches the compiled shape.
  bool Matches(const Atom& query) const;

  // Classifies how the phase-1 closure for `query` (which must match the
  // compiled shape) can be maintained incrementally and, when
  // kMaintainable, builds the closure program under `prefix` (the caller's
  // unique namespace, e.g. "$dred7_"). Interns the query's symbol
  // constants so seed_row holds concrete Values. Pure construction: no
  // relations are created — feed the program to IncrementalEngine::Create.
  ClosureMaintenance MaintenanceFor(const Atom& query,
                                    const std::string& prefix) const;

 private:
  struct Impl;
  explicit PreparedSeparable(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace seprec

#endif  // SEPREC_SEPARABLE_ENGINE_H_
