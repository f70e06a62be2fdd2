// RowIdSet: an open-addressing hash set of 32-bit row ids whose rows live
// in the owner's flat buffer.
//
// It is the one dedup structure under Relation's delta rows, StagingSink
// and Answer. The set stores no rows: every operation
// that compares rows takes the owner's accessor, `row_of(id)`, returning
// the id's row as a span. Each slot holds an id beside the low 32 bits of
// MixBits(HashRow(row)), so a probe reads a stored row only when the hash
// tags match, and growing never re-reads a row. Probing is linear over a
// power-of-two table kept at most half full; Erase shifts the rest of the
// probe run back instead of leaving tombstones, and clear() keeps the
// capacity, so a relation emptied every round reuses its table without
// allocating.
#ifndef SEPREC_STORAGE_ROW_ID_SET_H_
#define SEPREC_STORAGE_ROW_ID_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/value.h"
#include "util/hash.h"
#include "util/logging.h"

namespace seprec {

class RowIdSet {
 public:
  // Returned by Find and Erase when no stored row equals the probe. Never
  // a valid id.
  static constexpr uint32_t kNone = 0xffffffffu;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The id whose row equals `row`, or kNone.
  template <typename RowOf>
  uint32_t Find(std::span<const Value> row, const RowOf& row_of) const {
    if (size_ == 0) return kNone;
    const uint32_t tag = Tag(row);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && Equal(row_of(s.id), row)) return s.id;
    }
  }

  // Adds `id`, naming `row`, unless the set already holds a row equal to
  // `row`. The row need not be in the owner's buffer yet (the owner
  // appends it once Insert returns true), so a duplicate costs no append
  // and no rollback. Returns true when `id` was added.
  template <typename RowOf>
  bool Insert(std::span<const Value> row, uint32_t id, const RowOf& row_of) {
    SEPREC_DCHECK(id != kNone);
    const uint32_t tag = Tag(row);
    size_t i = tag & mask_;
    if (size_ > 0) {
      for (;; i = (i + 1) & mask_) {
        const Slot& s = slots_[i];
        if (s.id == kNone) break;
        if (s.tag == tag && Equal(row_of(s.id), row)) return false;
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
      i = FreeSlotFor(tag);
    }
    slots_[i] = Slot{id, tag};
    ++size_;
    return true;
  }

  // Removes the id whose row equals `row` and returns it, or kNone. The
  // row must still be readable through `row_of`.
  template <typename RowOf>
  uint32_t Erase(std::span<const Value> row, const RowOf& row_of) {
    if (size_ == 0) return kNone;
    const uint32_t tag = Tag(row);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && Equal(row_of(s.id), row)) {
        const uint32_t id = s.id;
        RemoveAt(i);
        return id;
      }
    }
  }

  // Empties the set, keeping its capacity.
  void clear();

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;
  };

  static uint32_t Tag(std::span<const Value> row) {
    return static_cast<uint32_t>(MixBits(HashRow(row)));
  }
  static bool Equal(std::span<const Value> a, std::span<const Value> b) {
    for (size_t i = 0; i < b.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  // The first empty slot of `tag`'s probe run.
  size_t FreeSlotFor(uint32_t tag) const {
    size_t i = tag & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    return i;
  }

  void Grow();
  void RemoveAt(size_t i);

  std::vector<Slot> slots_;  // empty until the first Insert
  size_t mask_ = 0;          // slots_.size() - 1 once allocated
  size_t size_ = 0;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_ROW_ID_SET_H_
