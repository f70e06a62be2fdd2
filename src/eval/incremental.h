// Incremental view maintenance for positive Datalog programs:
// insertions by semi-naive delta propagation, deletions by
// Delete-and-Rederive (DRed) [Gupta, Mumick & Subrahmanian 1993].
//
// After Initialize() materialises the fixpoint, AddFacts/RemoveFacts keep
// every IDB relation exact under EDB updates without recomputing from
// scratch:
//
//   * insertion: seed per-relation deltas with the new tuples and run the
//     per-occurrence delta rules to fixpoint (only work proportional to
//     the affected derivations);
//   * deletion: (1) overdelete — close the set of tuples with at least
//     one derivation through a deleted tuple (computed against the
//     pre-deletion relations), (2) erase them, (3) rederive — re-insert
//     every overdeleted tuple that still has a derivation from the
//     remaining tuples, cascading re-insertions like insertions.
//
// Restricted to positive programs (no negation, no aggregates): DRed's
// overdelete/rederive argument needs monotonicity. Non-positive programs
// are rejected at Create; re-evaluate those from scratch instead.
#ifndef SEPREC_EVAL_INCREMENTAL_H_
#define SEPREC_EVAL_INCREMENTAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "eval/eval_stats.h"
#include "eval/join_plan.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

struct UpdateStats {
  size_t inserted = 0;     // tuples added to IDB relations (incl. cascades)
  size_t overdeleted = 0;  // tuples provisionally deleted
  size_t rederived = 0;    // overdeleted tuples that came back
  size_t iterations = 0;   // delta rounds
  double seconds = 0.0;    // wall time of the whole update call

  std::string ToString() const;
};

class TraceSink;

class IncrementalEngine {
 public:
  // Validates the program (safe, positive, no aggregates) and compiles
  // the delta/overdelete/rederive plan sets. Each predicate's relation is
  // found or created with Database::FindOrCreate, so in an overlay the
  // '$'-named ones live there and the others in the root; the '$inc'
  // deltas are the overlay's own. `db` must outlive the engine.
  static StatusOr<IncrementalEngine> Create(Program program, Database* db);

  IncrementalEngine(IncrementalEngine&&) = default;
  IncrementalEngine& operator=(IncrementalEngine&&) = default;

  // Full semi-naive evaluation establishing the fixpoint. Call once
  // before the first update (also callable later to re-sync). Fills
  // `stats` (including wall time) when non-null.
  Status Initialize(EvalStats* stats = nullptr);

  // Attaches a trace sink; subsequent Initialize/AddFacts/RemoveFacts
  // calls emit engine and per-round events (engine "incremental", phases
  // "insert", "overdelete", "rederive"). Pass nullptr to detach.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  // Inserts rows into the EDB relation `relation` and propagates.
  Status AddFacts(std::string_view relation,
                  const std::vector<std::vector<Value>>& rows);
  // Convenience: symbol tokens, interned.
  Status AddFact(std::string_view relation,
                 const std::vector<std::string>& symbols);

  // Removes rows from the EDB relation `relation` and maintains all IDB
  // relations by DRed.
  Status RemoveFacts(std::string_view relation,
                     const std::vector<std::vector<Value>>& rows);
  Status RemoveFact(std::string_view relation,
                    const std::vector<std::string>& symbols);

  // --- Split-phase updates -------------------------------------------
  //
  // The query service owns the EDB mutation (it goes through the WAL and
  // ApplyTupleBatch, shared with every other maintenance engine watching
  // the same relation), so the engine also exposes each update as phases
  // around a mutation the CALLER performs:
  //
  //   insert:  caller applies the batch, then PropagateInserted(rel, new)
  //            with the rows that were genuinely new;
  //   delete:  PrepareRemoval(rel, victims) BEFORE the erase (overdelete
  //            closes against the pre-deletion state and the engine's own
  //            IDB tuples are erased), then the caller erases the EDB
  //            rows, then FinishRemoval() rederives and cascades.
  //
  // AddFacts/RemoveFacts remain the self-contained forms of the same
  // phases for callers that own their database.

  // True when `relation` is a base (non-IDB) relation of the maintained
  // program — i.e. updates to it must be propagated through this engine.
  bool Maintains(std::string_view relation) const;

  // Seeds the insertion deltas with `rows` — which the caller has ALREADY
  // inserted into `relation` — and runs the delta rules to fixpoint. Does
  // not touch the EDB relation or the database generation.
  Status PropagateInserted(std::string_view relation,
                           const std::vector<std::vector<Value>>& rows);

  // DRed phase 1 against the pre-deletion state: computes the overdelete
  // closure of `rows` (which must still be present in `relation`), erases
  // the overdeleted tuples from the engine's IDB relations, and loads the
  // rederivation filters. The caller must erase `rows` from `relation`
  // itself before calling FinishRemoval.
  Status PrepareRemoval(std::string_view relation,
                        const std::vector<std::vector<Value>>& rows);

  // DRed phases 2-3: rederives every overdeleted tuple still derivable
  // from the remaining tuples, cascades the re-insertions, and clears the
  // filters. Requires a preceding PrepareRemoval.
  Status FinishRemoval();

  // The '$'-prefixed delta relations this engine created in the database
  // (unique to this engine instance), so an owner tearing the engine down
  // can Drop them.
  std::vector<std::string> ScratchRelationNames() const;

  // Statistics of the most recent update call (for the split-phase form,
  // of the Prepare/Finish pair as a whole).
  const UpdateStats& last_update() const { return last_update_; }

  const Program& program() const { return info_.program(); }

 private:
  IncrementalEngine() = default;

  struct VariantPlan {
    RulePlan plan;
    std::string head;
  };

  Status SeedRows(std::string_view relation,
                  const std::vector<std::vector<Value>>& rows,
                  bool removing, Relation** edb, Relation** seed);
  // Runs the insertion delta loop starting from the current $inc<id>_new_*
  // contents. Adds newly derived tuples to the IDB relations.
  Status PropagateInsertions();
  // Overdelete closure of the seeded $inc<id>_del_* deltas against the
  // pre-deletion state; erases overdeleted IDB tuples, loads the rederive
  // filters, and erases the EDB seed too when `erase_edb` is set.
  Status OverdeleteAndErase(std::string_view relation, Relation* seed,
                            bool erase_edb);
  // Rederivation + cascade, then clears the filters.
  Status RederiveAndCascade();

  std::string NewDeltaName(std::string_view pred) const;
  std::string DelDeltaName(std::string_view pred) const;

  ProgramInfo info_;
  Database* db_ = nullptr;
  // Unique per engine instance ("$inc<id>"), so several engines can
  // maintain programs over the same database without sharing deltas.
  std::string delta_prefix_;
  std::set<std::string> predicates_;      // every predicate mentioned
  std::set<std::string> idb_;             // head predicates
  std::vector<VariantPlan> insert_plans_;     // occurrence -> $inc<id>_new_*
  std::vector<VariantPlan> overdelete_plans_; // occurrence -> $inc<id>_del_*
  std::vector<VariantPlan> rederive_plans_;   // body + del-filter on head
  bool pending_removal_ = false;  // PrepareRemoval ran, FinishRemoval due
  UpdateStats last_update_;
  TraceSink* trace_ = nullptr;
};

}  // namespace seprec

#endif  // SEPREC_EVAL_INCREMENTAL_H_
