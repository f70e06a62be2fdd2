#include "storage/relation.h"

#include <algorithm>

#include "storage/segment/segment.h"
#include "util/failpoint.h"

namespace seprec {

void MemoryAccountant::Charge(size_t bytes) {
  if (Failpoints::Hit("governor.charge")) {
    // Simulated allocation spike: large enough to trip any realistic
    // max_bytes limit at the next governor poll.
    bytes += size_t{1} << 40;
  }
  for (MemoryAccountant* a = this; a != nullptr; a = a->parent_) {
    a->bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void MemoryAccountant::Release(size_t bytes) {
  for (MemoryAccountant* a = this; a != nullptr; a = a->parent_) {
    // CAS loop so concurrent releases clamp at zero instead of wrapping.
    size_t current = a->bytes_.load(std::memory_order_relaxed);
    while (!a->bytes_.compare_exchange_weak(
        current, current > bytes ? current - bytes : 0,
        std::memory_order_relaxed)) {
    }
  }
}

Index::Index(const Relation* relation, ColumnList columns)
    : relation_(relation), columns_(std::move(columns)) {
  for (uint32_t c : columns_) {
    SEPREC_CHECK(c < relation_->arity());
  }
  buckets_.reserve(relation_->size());
  for (uint32_t slot = 0; slot < relation_->slots(); ++slot) {
    if (relation_->IsLive(slot)) Add(slot);
  }
}

void Index::Add(uint32_t row_id) {
  buckets_.emplace(KeyHashOfRow(row_id), row_id);
}

uint64_t Index::KeyHashOfRow(uint32_t row_id) const {
  // The indexed columns are non-contiguous, so this can't span a Row into
  // HashRow; the seed and combine step must stay identical to HashRow so
  // bucket hashes match the ForEach probe's HashRow(key).
  Row r = relation_->row(row_id);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t c : columns_) h = HashCombine(h, r[c].bits());
  return h;
}

bool Index::RowMatchesKey(uint32_t row_id, Row key) const {
  Row r = relation_->row(row_id);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (r[columns_[i]] != key[i]) return false;
  }
  return true;
}

size_t Index::CountMatches(Row key) const {
  size_t n = 0;
  ForEach(key, [&n](uint32_t) { ++n; });
  return n;
}

Relation::Relation(std::string name, size_t arity)
    : name_(std::move(name)), arity_(arity) {}

Relation::~Relation() { SetAccountant(nullptr); }

void Relation::SetAccountant(MemoryAccountant* accountant) {
  if (accountant_ == accountant) return;
  // Only the heap-resident delta layer is accounted; base-segment rows are
  // mmap-backed file cache, outside the byte budget by design.
  const size_t delta_slots = num_slots_ - base_slots_;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Release(delta_slots * RowBytes());
  }
  accountant_ = accountant;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Charge(delta_slots * RowBytes());
  }
}

bool Relation::Insert(Row row) {
  SEPREC_CHECK(row.size() == arity_);
  const bool counting = counters_ != nullptr && counters_->active;
  if (counting) {
    counters_->attempts.fetch_add(1, std::memory_order_relaxed);
  }
  // Base dedup by binary search (the row-set below covers only the delta
  // layer — populating it with the whole base would decode every page).
  if (LiveBaseSlot(row) < base_slots_) return false;
  const uint32_t slot = static_cast<uint32_t>(num_slots_);
  if (!row_set_.Insert(row, slot, DeltaRowOf())) return false;
  data_.insert(data_.end(), row.begin(), row.end());
  dead_.push_back(false);
  ++num_slots_;
  ++num_rows_;
  if (counting) {
    counters_->novel.fetch_add(1, std::memory_order_relaxed);
  }
  if (accountant_ != nullptr) accountant_->Charge(RowBytes());
  for (auto& [cols, index] : indexes_) {
    index->Add(slot);
  }
  return true;
}

bool Relation::Contains(Row row) const {
  SEPREC_CHECK(row.size() == arity_);
  return LiveBaseSlot(row) < base_slots_ ||
         row_set_.Find(row, DeltaRowOf()) != RowIdSet::kNone;
}

size_t Relation::LiveBaseSlot(Row row) const {
  if (base_ == nullptr) return base_slots_;
  const uint64_t idx = base_->Find(row.data(), row.size());
  return idx < base_slots_ && !dead_[idx] ? static_cast<size_t>(idx)
                                          : base_slots_;
}

const Index& Relation::GetIndex(const ColumnList& columns) const {
  // Concurrent readers may race to build the same index; the lock makes
  // one of them win and the rest wait for the finished build. Map nodes
  // are stable, so the returned reference outlives the lock.
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(columns);
  if (it == indexes_.end()) {
    it = indexes_.emplace(columns, std::make_unique<Index>(this, columns))
             .first;
  }
  return *it->second;
}

void Relation::Clear() {
  const size_t delta_slots = num_slots_ - base_slots_;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Release(delta_slots * RowBytes());
  }
  if (num_slots_ > 0) ++mutation_epoch_;
  data_.clear();
  dead_.clear();
  num_rows_ = 0;
  num_slots_ = 0;
  row_set_.clear();
  indexes_.clear();
  base_.reset();
  base_slots_ = 0;
  base_dead_ = 0;
}

size_t Relation::InsertAll(const Relation& other) {
  SEPREC_CHECK(other.arity() == arity_);
  size_t added = 0;
  other.ForEachRow([this, &added](Row r) {
    if (Insert(r)) ++added;
  });
  return added;
}

size_t Relation::EraseRows(const Relation& to_remove) {
  SEPREC_CHECK(to_remove.arity() == arity_);
  if (to_remove.empty() || num_rows_ == 0) return 0;
  size_t removed = 0;
  to_remove.ForEachRow([&](Row r) {
    // The (single, live) slot holding r, if any: a base slot by binary
    // search, else a delta slot through the row set.
    const size_t base_slot = LiveBaseSlot(r);
    if (base_slot < base_slots_) {
      dead_[base_slot] = true;
      ++base_dead_;
      --num_rows_;
      ++removed;
      return;
    }
    const uint32_t victim = row_set_.Erase(r, DeltaRowOf());
    if (victim != RowIdSet::kNone) {
      dead_[victim] = true;
      --num_rows_;
      ++removed;
    }
  });
  if (removed > 0) ++mutation_epoch_;
  return removed;
}

Row Relation::BaseRow(size_t slot) const {
  return Row(base_->row(slot), arity_);
}

void Relation::AttachBaseSegment(
    std::shared_ptr<const RelationSegment> base) {
  SEPREC_CHECK(base != nullptr);
  SEPREC_CHECK(num_slots_ == 0);
  SEPREC_CHECK(arity_ > 0);
  SEPREC_CHECK(base->arity() == arity_);
  base_ = std::move(base);
  base_slots_ = static_cast<size_t>(base_->rows());
  base_dead_ = 0;
  num_slots_ = base_slots_;
  num_rows_ = base_slots_;
  dead_.assign(base_slots_, false);
  indexes_.clear();
  if (base_slots_ > 0) ++mutation_epoch_;
  // No accountant charge — see the header comment on AttachBaseSegment.
}

namespace {

// Canonical raw-bits lexicographic order over two rows of one relation.
bool RowBitsLess(Row a, Row b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return a[i].bits() < b[i].bits();
  }
  return false;
}

// a's leading key.size() columns < key, raw-bits order.
bool PrefixBitsLess(Row a, Row key) {
  for (size_t i = 0; i < key.size(); ++i) {
    if (a[i].bits() != key[i].bits()) return a[i].bits() < key[i].bits();
  }
  return false;
}

}  // namespace

OrderedCursor::OrderedCursor(const Relation* rel) : rel_(rel) {
  const size_t base = rel_->base_slots();
  delta_.reserve(rel_->slots() - base);
  for (size_t slot = base; slot < rel_->slots(); ++slot) {
    if (rel_->IsLive(slot)) delta_.push_back(static_cast<uint32_t>(slot));
  }
  std::sort(delta_.begin(), delta_.end(), [rel](uint32_t a, uint32_t b) {
    return RowBitsLess(rel->row(a), rel->row(b));
  });
  Settle();
}

void OrderedCursor::Settle() {
  const uint64_t base_rows = rel_->base_slots();
  while (base_idx_ < base_rows &&
         !rel_->IsLive(static_cast<size_t>(base_idx_))) {
    ++base_idx_;
  }
  const bool have_base = base_idx_ < base_rows;
  const bool have_delta = delta_idx_ < delta_.size();
  at_end_ = !have_base && !have_delta;
  if (at_end_) return;
  if (!have_delta) {
    on_base_ = true;
  } else if (!have_base) {
    on_base_ = false;
  } else {
    // Never equal: a live delta row never duplicates a live base row
    // (Insert checks the base first), so the comparison is strict.
    on_base_ = RowBitsLess(rel_->row(static_cast<size_t>(base_idx_)),
                           rel_->row(delta_[delta_idx_]));
  }
}

void OrderedCursor::Next() {
  SEPREC_DCHECK(!at_end_);
  if (on_base_) {
    ++base_idx_;
  } else {
    ++delta_idx_;
  }
  Settle();
}

void OrderedCursor::SeekGE(Row key) {
  const RelationSegment* seg = rel_->base_segment().get();
  base_idx_ = seg != nullptr ? seg->LowerBound(key.data(), key.size()) : 0;
  delta_idx_ = static_cast<size_t>(
      std::lower_bound(delta_.begin(), delta_.end(), key,
                       [this](uint32_t slot, Row k) {
                         return PrefixBitsLess(rel_->row(slot), k);
                       }) -
      delta_.begin());
  Settle();
}

bool StagingSink::Insert(Row row) {
  SEPREC_DCHECK(row.size() == arity_);
  // Like Relation::Insert: probe before appending, and charge the
  // accountant only for NOVEL rows, after dedupe.
  const size_t arity = arity_;
  const Value* data = data_.data();
  auto row_of = [data, arity](uint32_t id) {
    return Row(data + size_t{id} * arity, arity);
  };
  const uint32_t id = static_cast<uint32_t>(rows_.size());
  if (!rows_.Insert(row, id, row_of)) return false;
  data_.insert(data_.end(), row.begin(), row.end());
  if (accountant_ != nullptr) accountant_->Charge(RowBytes());
  return true;
}

size_t StagingSink::MergeInto(Relation* out, Relation* delta,
                              size_t* staged_count) {
  SEPREC_CHECK(out->arity() == arity_);
  // Point at every staged row, then sort the pointers lexicographically
  // by Value bits: the canonical merge order that makes the target's slot
  // sequence independent of the order the rules derived the rows in.
  const size_t arity = arity_;
  const size_t staged = rows_.size();
  merge_order_.clear();
  for (size_t r = 0; r < staged; ++r) {
    merge_order_.push_back(data_.data() + r * arity);
  }
  std::sort(merge_order_.begin(), merge_order_.end(),
            [arity](const Value* a, const Value* b) {
              return RowBitsLess(Row(a, arity), Row(b, arity));
            });
  size_t new_rows = 0;
  for (const Value* row : merge_order_) {
    if (out->Insert(Row(row, arity))) {
      ++new_rows;
      if (delta != nullptr) delta->Insert(Row(row, arity));
    }
  }
  Clear();
  if (staged_count != nullptr) *staged_count += staged;
  return new_rows;
}

void StagingSink::Clear() {
  if (accountant_ != nullptr) accountant_->Release(rows_.size() * RowBytes());
  data_.clear();
  rows_.clear();
}

std::string Relation::DebugString(const SymbolTable& symbols) const {
  std::vector<std::string> lines;
  lines.reserve(num_rows_);
  ForEachRow([this, &symbols, &lines](Row r) {
    std::string line = name_ + "(";
    for (size_t c = 0; c < r.size(); ++c) {
      if (c > 0) line += ", ";
      line += symbols.ToString(r[c]);
    }
    line += ")";
    lines.push_back(std::move(line));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace seprec
