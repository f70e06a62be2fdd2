#include "storage/row_id_set.h"

#include <algorithm>

namespace seprec {

namespace {

constexpr size_t kMinSlots = 16;

}  // namespace

void RowIdSet::clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void RowIdSet::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, old.size() * 2), Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id != kNone) slots_[FreeSlotFor(s.tag)] = s;
  }
}

void RowIdSet::RemoveAt(size_t i) {
  // Backward-shift deletion: walk the probe run after the hole and move
  // back every entry whose home slot does not lie cyclically in
  // (hole, entry], so each remaining id stays reachable from its home.
  for (size_t j = (i + 1) & mask_; slots_[j].id != kNone;
       j = (j + 1) & mask_) {
    const size_t home = slots_[j].tag & mask_;
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (stays) continue;
    slots_[i] = slots_[j];
    i = j;
  }
  slots_[i] = Slot{};
  --size_;
}

}  // namespace seprec
