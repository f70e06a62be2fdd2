// Database: the catalog of named relations plus the shared symbol table.
#ifndef SEPREC_STORAGE_DATABASE_H_
#define SEPREC_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "util/status.h"

namespace seprec {

class StatsCatalog;

class Database {
 public:
  // Out-of-line: stats_ holds a forward-declared type, so the compiler
  // needs the .cc's complete view to generate construction/destruction.
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // Creates relation `name` with the given arity, or returns the existing
  // one (whose arity must match; mismatch is an error).
  StatusOr<Relation*> CreateRelation(std::string_view name, size_t arity);

  // Returns the relation or nullptr.
  Relation* Find(std::string_view name);
  const Relation* Find(std::string_view name) const;

  // Convenience: ensures the relation exists and inserts a row of symbol
  // constants, interning them. Example: AddFact("edge", {"a", "b"}).
  Status AddFact(std::string_view relation,
                 std::initializer_list<std::string_view> symbols);
  Status AddFact(std::string_view relation,
                 const std::vector<std::string>& symbols);

  // Removes a relation if present (used to drop $-prefixed scratch
  // relations created during evaluation). Any Relation*/Index references
  // become invalid, and an open journal forgets the relation's pre-image
  // (a relation dropped inside a checkpoint stays dropped). Dropping a
  // non-scratch relation bumps the data generation unless
  // `bump_generation` is false — DatabaseCheckpoint rollback passes false
  // because its drops restore the pre-run catalog rather than mutate it.
  void Drop(std::string_view name, bool bump_generation = true);

  // The write journal DatabaseCheckpoint rolls back from (see
  // WriteJournal). OpenJournal CHECK-fails if one is already open:
  // checkpoints do not nest. CloseJournal stops recording and returns what
  // was recorded.
  void OpenJournal();
  WriteJournal CloseJournal();
  // Relations the open journal holds a pre-image for (0 when closed).
  size_t journaled_relations() const { return journal_.pre_images.size(); }

  // Names of all relations, sorted (stable output for tests / tools).
  std::vector<std::string> RelationNames() const;

  // Total number of stored tuples across all relations.
  size_t TotalTuples() const;

  // The shared byte accountant every relation of this database charges.
  // The execution governor reads it to enforce max_bytes limits.
  MemoryAccountant& accountant() { return accountant_; }
  const MemoryAccountant& accountant() const { return accountant_; }

  // Shared insert counters every relation of this database feeds; the
  // trace layer snapshots them around engine runs.
  StorageCounters& counters() { return counters_; }
  const StorageCounters& counters() const { return counters_; }

  // Data generation: a counter bumped by every EDB mutation (AddFact, the
  // TSV/snapshot loaders, incremental updates, dropping a non-scratch
  // relation). Caches of evaluation artifacts derived from the stored data
  // — notably the query service's phase-1 closure cache — key their entries
  // by this value, so a mutation invalidates them without bookkeeping.
  // Evaluation-internal writes deliberately do NOT bump it: engines append
  // derived tuples and drop '$'-prefixed scratch constantly, and a
  // checkpoint rollback restores the exact pre-run extent, so none of
  // those change what a cached artifact was computed from.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Recovery only: re-seats the counter at the value the manifest recorded
  // for the snapshot, so replaying the WAL's per-batch bumps reproduces the
  // exact pre-crash generation (closure-cache keys embed it — a restarted
  // server must not alias a stale cache line onto different data).
  void SetGeneration(uint64_t g) {
    generation_.store(g, std::memory_order_release);
  }

  // Per-relation statistics for the cost-based planner (lazily created;
  // entries refresh themselves when a relation's extent changes and are
  // dropped when its relation is dropped). Thread-safe.
  StatsCatalog& stats();

 private:
  SymbolTable symbols_;
  // Declared before relations_ so it outlives them during destruction
  // (relations release their footprint from their destructor).
  MemoryAccountant accountant_;
  StorageCounters counters_;
  std::atomic<uint64_t> generation_{0};
  // unique_ptr: keeps storage/ headers free of a plan/ include; the
  // catalog holds no Relation references across calls, only cache entries
  // keyed by pointer that Drop() explicitly forgets.
  std::unique_ptr<StatsCatalog> stats_;
  WriteJournal journal_;
  uint64_t journal_opens_ = 0;  // source of WriteJournal::open_id
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_DATABASE_H_
