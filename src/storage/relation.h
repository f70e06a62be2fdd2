// Relation: an in-memory set of fixed-arity tuples with hash indexes.
//
// Storage is row-major and append-mostly; duplicate rows are rejected on
// insert. Deletion (used by DRed incremental maintenance) tombstones the
// slot: `size()` reports LIVE rows while slots()/IsLive() expose the
// underlying slot space; iteration uses ForEachRow / explicit slot loops
// with IsLive checks. For relations that are never erased, slots() ==
// size() and row(i) enumerates exactly the live rows in insertion order.
// Secondary hash indexes on arbitrary column subsets are built lazily and
// maintained incrementally, which is what the fixpoint engines need: they
// interleave index lookups with inserts every iteration.
//
// Thread model: mutation (Insert/Clear/EraseRows) is
// single-threaded, but concurrent READ access — including the lazy index
// build in GetIndex, which is serialised by an internal mutex — is safe
// while no mutator runs. Each query evaluates on one thread and writes
// only the relations of its own overlay (see Database), so this split is
// what lets requests read the stored relations of a shared catalog.
#ifndef SEPREC_STORAGE_RELATION_H_
#define SEPREC_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/row_id_set.h"
#include "storage/symbol_table.h"
#include "storage/value.h"
#include "util/hash.h"
#include "util/logging.h"

namespace seprec {

using Row = std::span<const Value>;
// Column positions, 0-based, in probe order (not necessarily sorted).
using ColumnList = std::vector<uint32_t>;

class Relation;
class RelationSegment;

// Byte-level accounting of relation storage. A Database shares one
// accountant across all of its relations (and the engines attach it to
// their scratch relations), so the execution governor can enforce
// ExecutionLimits::max_bytes by reading one running total. A parent
// accountant also receives every charge and release: a Database overlay's
// counts what one evaluation holds, its root's everything. Charges are
// approximate — Value payload plus a flat per-row overhead standing in for
// the dedup-set and index entries — the goal being a cheap measure that
// moves with real allocation, not malloc-accurate bytes. The running total
// is a relaxed atomic: every overlay's accountant forwards its charges to
// the root's, which concurrent sessions share, and the governor and the
// service's stats read one number from any thread. Charges are only ever
// counted for NOVEL rows (dedup rejects never charge — see
// Relation::Insert and StagingSink::Insert), so duplicate derivations
// cannot inflate the byte budget.
class MemoryAccountant {
 public:
  // Flat per-row overhead charged on top of the Value payload.
  static constexpr size_t kRowOverheadBytes = 48;

  // `parent`, if set, must outlive this accountant.
  explicit MemoryAccountant(MemoryAccountant* parent = nullptr)
      : parent_(parent) {}

  // Adds `bytes` to the running total, and to the parent's. Carries the
  // "governor.charge" failpoint, which injects a simulated allocation
  // spike so tests can trip the byte budget deterministically.
  void Charge(size_t bytes);

  // Subtracts `bytes` here and from the parent, clamping at zero.
  void Release(size_t bytes);

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  MemoryAccountant* const parent_;
  std::atomic<size_t> bytes_{0};
};

// Running insert counters shared across a database's relations, read by
// the trace layer (engine_finish events report the delta over an engine
// run). `attempts` counts Relation::Insert calls, `novel` the ones that
// stored a new row; the gap is duplicate derivations rejected by dedup.
// Relaxed atomics: every overlay of a catalog counts into its root's
// counters, so requests of concurrent sessions share them.
//
// Counting costs two atomic adds per insert, so it stays off until an
// engine attaches a trace sink (the counters' only consumer). `active`
// only ever turns on, and engines turn it on while they hold the catalog
// exclusively, so a plain bool is safe.
struct StorageCounters {
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> novel{0};
  bool active = false;
};

// Hash index over a subset of a relation's columns. Owned by the relation;
// kept up to date as rows are inserted.
class Index {
 public:
  Index(const Relation* relation, ColumnList columns);

  // Invokes fn(row_id) for every row whose `columns` equal `key` (same
  // order). `key.size()` must equal the column count.
  template <typename Fn>
  void ForEach(Row key, Fn&& fn) const;

  // Number of rows matching `key`.
  size_t CountMatches(Row key) const;

  const ColumnList& columns() const { return columns_; }

 private:
  friend class Relation;

  // Adds `row_id` (must reference an existing row of the parent relation).
  void Add(uint32_t row_id);

  uint64_t KeyHashOfRow(uint32_t row_id) const;
  bool RowMatchesKey(uint32_t row_id, Row key) const;

  const Relation* relation_;
  ColumnList columns_;
  std::unordered_multimap<uint64_t, uint32_t> buckets_;
};

class Relation {
 public:
  Relation(std::string name, size_t arity);
  ~Relation();
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  // Attaches (or, with nullptr, detaches) a memory accountant. The current
  // footprint transfers: released from the old accountant, charged to the
  // new one. The accountant must outlive the relation (Database guarantees
  // this by declaring its accountant before the relation map).
  void SetAccountant(MemoryAccountant* accountant);

  // Attaches (or detaches) shared insert counters; unlike the accountant
  // there is no footprint to transfer, only future inserts are counted.
  // The counters must outlive the relation.
  void SetCounters(StorageCounters* counters) { counters_ = counters; }

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  // Number of LIVE rows.
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  // Number of storage slots (live + tombstoned). Equal to size() unless
  // EraseRows was used.
  size_t slots() const { return num_slots_; }
  // Counts content mutations that can alias a (size, slots) fingerprint:
  // erases, non-empty Clears and base attaches. StatsCatalog folds it into
  // its entry fingerprint so an erase/clear followed by inserts restoring
  // the same extent cannot serve stale per-column statistics — the case of
  // an overlay relation one request empties and the next fills again.
  uint64_t mutation_epoch() const { return mutation_epoch_; }
  bool IsLive(size_t slot) const {
    SEPREC_DCHECK(slot < num_slots_);
    return !dead_[slot];
  }

  // Inserts `row` (length must equal arity). Returns true if the row was new.
  bool Insert(Row row);
  bool Insert(std::initializer_list<Value> row) {
    return Insert(Row(row.begin(), row.size()));
  }

  bool Contains(Row row) const;

  // Slot access; callers iterating [0, slots()) must skip dead slots (see
  // ForEachRow). With a base segment attached, slots [0, base_slots())
  // resolve into the segment (decoding its page on first touch) and the
  // delta rows occupy slots from base_slots() up.
  Row row(size_t slot) const {
    SEPREC_DCHECK(slot < num_slots_);
    if (slot >= base_slots_) {
      return Row(data_.data() + (slot - base_slots_) * arity_, arity_);
    }
    return BaseRow(slot);
  }

  // Invokes fn(Row) for every live row, in insertion order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t slot = 0; slot < num_slots_; ++slot) {
      if (!dead_[slot]) fn(row(slot));
    }
  }

  // Returns an index on `columns`, building it on first request. The result
  // stays valid (and current) for the relation's lifetime. Safe to call
  // from concurrent readers: the lazy build is serialised by an internal
  // mutex (requests probing the same stored relation may race to be
  // first).
  const Index& GetIndex(const ColumnList& columns) const;

  // Removes all rows (indexes are dropped too).
  void Clear();

  // Inserts every row of `other` (arities must match). Returns the number of
  // new rows.
  size_t InsertAll(const Relation& other);

  // Removes every row that appears in `to_remove` (arities must match) by
  // tombstoning its slot — O(|to_remove|) with one row-set probe (and, over
  // a base segment, one binary search) per row.
  // Slot ids remain stable; indexes skip dead slots. Returns the number
  // of rows removed.
  size_t EraseRows(const Relation& to_remove);

  // Seats an immutable, mmap-backed segment as this relation's base
  // extent. The relation must be empty (slots() == 0) and of matching
  // non-zero arity. Base rows occupy slots [0, base->rows()) in the
  // segment's canonical sorted order; later Inserts land in an in-memory
  // delta layer above them, and EraseRows tombstones base slots like any
  // other. The base is deliberately NOT charged to the accountant: its
  // bytes are file-backed page cache, not query heap, so only the delta
  // counts against ExecutionLimits::max_bytes. Bumps mutation_epoch_.
  void AttachBaseSegment(std::shared_ptr<const RelationSegment> base);

  // The attached base segment, or nullptr. Shared so compaction can hand
  // the same segment to diagnostics while the relation still serves it.
  const std::shared_ptr<const RelationSegment>& base_segment() const {
    return base_;
  }
  // Number of slots served by the base segment (0 without one).
  size_t base_slots() const { return base_slots_; }
  // Tombstoned base slots — compaction triggers when this is non-zero.
  size_t base_dead() const { return base_dead_; }
  // Live rows held by the in-memory delta layer (all rows without a base).
  size_t delta_rows() const {
    return num_rows_ - (base_slots_ - base_dead_);
  }

  // Invokes fn(Row) for every live row in canonical (raw Value bits,
  // lexicographic) order — the order segments are stored in and StagingSink
  // merges in. Single-threaded with respect to mutators, like ForEachRow.
  template <typename Fn>
  void ForEachRowOrdered(Fn&& fn) const;

  // One line per row, rows sorted, for tests and diagnostics.
  std::string DebugString(const SymbolTable& symbols) const;

 private:
  friend class Index;

  // Out-of-line so this header needs only a RelationSegment declaration.
  Row BaseRow(size_t slot) const;

  // The live base slot holding a row equal to `row`, found by binary
  // search; base_slots() when there is none (always, without a base).
  size_t LiveBaseSlot(Row row) const;

  // row_set_'s accessor: a delta slot's row.
  auto DeltaRowOf() const {
    return [this](uint32_t slot) {
      return Row(data_.data() + (slot - base_slots_) * arity_, arity_);
    };
  }

  std::string name_;
  size_t arity_;
  size_t num_rows_ = 0;   // live rows
  size_t num_slots_ = 0;  // live + tombstoned
  uint64_t mutation_epoch_ = 0;  // erases, non-empty Clears, copies, attaches
  std::vector<Value> data_;  // row-major, num_slots_ * arity_ values
  std::vector<bool> dead_;   // per slot
  // Approximate bytes a stored row costs, for the accountant.
  size_t RowBytes() const {
    return arity_ * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  }

  // Live delta slots. Base rows are found through the segment's Find, so
  // building this set never decodes a base page.
  RowIdSet row_set_;
  // std::map: ColumnList has operator< for free; index count is tiny.
  // Node pointers are stable, so a built Index& survives later GetIndex
  // calls inserting new entries. Guarded by index_mu_ for concurrent
  // readers; mutators run single-threaded and also take the lock for
  // uniformity.
  mutable std::map<ColumnList, std::unique_ptr<Index>> indexes_;
  mutable std::mutex index_mu_;
  MemoryAccountant* accountant_ = nullptr;  // not owned; may be null
  StorageCounters* counters_ = nullptr;     // not owned; may be null

  // Mmap-backed base extent (see AttachBaseSegment); null for relations
  // living entirely on the heap.
  std::shared_ptr<const RelationSegment> base_;
  size_t base_slots_ = 0;  // rows served by base_, == base_->rows()
  size_t base_dead_ = 0;   // tombstoned base slots
};

// Merged in-order iteration over a relation's base segment and delta
// layer: yields live rows in canonical raw-bits order, the foundation of
// ordered range scans and the merge-join operator. Construction sorts the
// live delta slots (cheap — the delta is small between compactions); the
// base side streams straight out of the segment. Valid only while no
// mutator runs, like every other reader.
class OrderedCursor {
 public:
  explicit OrderedCursor(const Relation* rel);

  bool AtEnd() const { return at_end_; }
  Row Current() const {
    SEPREC_DCHECK(!at_end_);
    return rel_->row(on_base_ ? static_cast<size_t>(base_idx_)
                              : delta_[delta_idx_]);
  }
  void Next();

  // Positions the cursor at the first live row whose key.size() leading
  // columns are >= `key` under raw-bits order (AtEnd when none is).
  void SeekGE(Row key);

 private:
  void Settle();

  const Relation* rel_;
  uint64_t base_idx_ = 0;  // next base slot to consider
  std::vector<uint32_t> delta_;  // live delta slots, canonical order
  size_t delta_idx_ = 0;
  bool on_base_ = false;
  bool at_end_ = false;
};

template <typename Fn>
void Relation::ForEachRowOrdered(Fn&& fn) const {
  for (OrderedCursor c(this); !c.AtEnd(); c.Next()) fn(c.Current());
}

// StagingSink: where an engine stages one round's derivations before
// folding them into the target relation. Rows are deduplicated into one
// row buffer through a RowIdSet (the scheme Relation uses for its delta,
// minus tombstones).
//
// MergeInto moves the staged rows into the target in CANONICAL order —
// sorted lexicographically by Value bits — not in the order the rules
// derived them. That fixes the target's slot sequence, so slot order,
// iteration counts and EvalStats depend only on the program and the data.
class StagingSink {
 public:
  explicit StagingSink(size_t arity) : arity_(arity) {}

  // Attach an accountant so staged rows count against the byte budget
  // while they sit in the sink (MergeInto releases the staging charge;
  // the target relation re-charges what it keeps).
  void SetAccountant(MemoryAccountant* accountant) { accountant_ = accountant; }

  size_t arity() const { return arity_; }

  // Stages `row` unless this sink already holds it. Returns true when the
  // row was new to the sink.
  bool Insert(Row row);

  // Rows staged so far.
  size_t size() const { return rows_.size(); }

  // Moves every staged row into `out` (and, for the rows genuinely new in
  // `out`, into `delta` when non-null) in canonical sorted order, then
  // clears the sink. Returns the number of rows new in `out`; when
  // `staged` is non-null it receives the number of rows the sink held
  // (pre merge dedup — the trace layer's merge statistic).
  size_t MergeInto(Relation* out, Relation* delta = nullptr,
                   size_t* staged = nullptr);

  // Discards staged rows (releasing their accountant charge).
  void Clear();

 private:
  size_t RowBytes() const {
    return arity_ * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  }

  size_t arity_;
  std::vector<Value> data_;  // staged rows, arity Values each
  RowIdSet rows_;
  MemoryAccountant* accountant_ = nullptr;  // not owned; may be null
  // MergeInto's sort buffer: pointers to the staged rows, kept across
  // rounds so a merge allocates nothing once it has seen its largest round.
  std::vector<const Value*> merge_order_;
};

template <typename Fn>
void Index::ForEach(Row key, Fn&& fn) const {
  SEPREC_DCHECK(key.size() == columns_.size());
  auto [begin, end] = buckets_.equal_range(HashRow(key));
  for (auto it = begin; it != end; ++it) {
    if (relation_->IsLive(it->second) && RowMatchesKey(it->second, key)) {
      fn(it->second);
    }
  }
}

}  // namespace seprec

#endif  // SEPREC_STORAGE_RELATION_H_
