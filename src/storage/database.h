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

// The longest relation name, in bytes. WAL records and v3 snapshot
// footers store a name's length in a u16, so CreateRelation refuses a
// longer name and WalWriter::Append refuses a batch that carries one.
inline constexpr size_t kMaxRelationNameBytes = 0xFFFF;

// A Database is either a root, which owns the stored data, or an overlay
// of another database (its base), in which an evaluation keeps what it
// writes. In an overlay:
//
//   * Find resolves a name in the overlay first, then in the base, except
//     StoredRowsName(p), which resolves to the root's own relation p.
//   * CreateRelation creates a relation in the overlay (engines call it
//     for what they write). It starts empty and shadows the base's.
//   * FindOrCreate (for the relations a rule body reads) creates a missing
//     '$' name, evaluation scratch, in the overlay, and any other name in
//     the root, where rows loaded later still reach the compiled plan.
//   * Symbols, counters, stats catalog and generation are the root's. The
//     overlay's own accountant passes every charge on to its base's.
//
// Nothing an overlay does reaches the base's catalog unless Commit hands
// its relations over, and destroying an overlay leaves the base as it
// was: its rows, accountant level, generation and statistics. The base
// must outlive the overlay.
class Database {
 public:
  // p', the name under which a rule reads the rows the root stores for
  // p. The parser cannot produce it: a quoted symbol never holds a quote.
  static std::string StoredRowsName(std::string_view predicate);
  // OK for a name CreateRelation (and so the WAL) accepts: at most
  // kMaxRelationNameBytes long, and not a StoredRowsName.
  static Status CheckRelationName(std::string_view name);

  // A root database.
  Database();
  // An overlay of `base` (see above).
  explicit Database(Database* base);
  // Out-of-line: stats_ holds a forward-declared type, so the compiler
  // needs the .cc's complete view to generate destruction.
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SymbolTable& symbols() { return root_->symbols_; }
  const SymbolTable& symbols() const { return root_->symbols_; }

  // Creates relation `name` with the given arity in this layer, or returns
  // the existing one (whose arity must match; mismatch is an error). A
  // name CheckRelationName refuses is an error.
  StatusOr<Relation*> CreateRelation(std::string_view name, size_t arity);

  // Returns the relation `name` resolves to (see Find), creating an empty
  // one when no layer holds it: in this layer for a '$' name, in the root
  // otherwise. The arity must match.
  StatusOr<Relation*> FindOrCreate(std::string_view name, size_t arity);

  // Returns the relation `name` resolves to (see above), or nullptr.
  Relation* Find(std::string_view name);
  const Relation* Find(std::string_view name) const;

  // Convenience: ensures the relation exists and inserts a row of symbol
  // constants, interning them. Example: AddFact("edge", {"a", "b"}).
  Status AddFact(std::string_view relation,
                 std::initializer_list<std::string_view> symbols);
  Status AddFact(std::string_view relation,
                 const std::vector<std::string>& symbols);

  // Removes a relation of this layer if present (an overlay never drops a
  // relation of its base). Any Relation*/Index references become invalid.
  // Dropping a root relation whose name is not '$'-prefixed bumps the data
  // generation.
  void Drop(std::string_view name);

  // Overlay only. Clear empties this layer's relations and keeps them, so
  // compiled plans stay bound; Discard destroys them.
  void Clear();
  void Discard();

  // Overlay only: hands this layer's relations to the base. A relation the
  // base's own layer lacks moves there; one it holds receives the rows.
  // The overlay is left without relations.
  void Commit();

  // Names of this layer's relations, sorted (stable output for tests and
  // tools).
  std::vector<std::string> RelationNames() const;

  // Total number of stored tuples across this layer's relations.
  size_t TotalTuples() const;

  // The byte accountant this layer's relations charge. The execution
  // governor reads it to enforce max_bytes limits.
  MemoryAccountant& accountant() { return accountant_; }
  const MemoryAccountant& accountant() const { return accountant_; }

  // Shared insert counters every relation of this database feeds; the
  // trace layer snapshots them around engine runs.
  StorageCounters& counters() { return root_->counters_; }
  const StorageCounters& counters() const { return root_->counters_; }

  // Data generation: a counter bumped by every EDB mutation (AddFact, the
  // TSV/snapshot loaders, incremental updates, dropping a non-scratch
  // relation). Caches of evaluation artifacts derived from the stored data
  // — notably the query service's phase-1 closure cache — key their entries
  // by this value, so a mutation invalidates them without bookkeeping.
  // Evaluation-internal writes deliberately do NOT bump it: engines append
  // derived tuples and drop '$'-prefixed scratch constantly, and a served
  // query writes only into an overlay, so none of those change what a
  // cached artifact was computed from.
  uint64_t generation() const {
    return root_->generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    root_->generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Recovery only: re-seats the counter at the value the manifest recorded
  // for the snapshot, so replaying the WAL's per-batch bumps reproduces the
  // exact pre-crash generation (closure-cache keys embed it — a restarted
  // server must not alias a stale cache line onto different data).
  void SetGeneration(uint64_t g) {
    root_->generation_.store(g, std::memory_order_release);
  }

  // Per-relation statistics for the cost-based planner (entries refresh
  // themselves when a relation's extent changes and are dropped when its
  // relation is dropped). Thread-safe.
  StatsCatalog& stats() { return *root_->stats_; }

 private:
  // Destroys a relation of this layer, first forgetting its statistics.
  void Destroy(std::unique_ptr<Relation> relation);

  Database* const base_;  // null for a root
  Database* const root_;  // this, or the base's root
  SymbolTable symbols_;
  // Child of the base's. Declared before relations_ so it outlives them
  // during destruction (relations release their footprint from their
  // destructor).
  MemoryAccountant accountant_;
  StorageCounters counters_;
  std::atomic<uint64_t> generation_{0};
  // A root's catalog (null in an overlay). unique_ptr: keeps storage/
  // headers free of a plan/ include; the catalog holds no Relation
  // references across calls, only cache entries keyed by pointer that
  // Destroy() explicitly forgets.
  std::unique_ptr<StatsCatalog> stats_;
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_DATABASE_H_
