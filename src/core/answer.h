// Answer: the result set of a query — full-arity tuples of the query
// predicate that match the query atom.
#ifndef SEPREC_CORE_ANSWER_H_
#define SEPREC_CORE_ANSWER_H_

#include <string>
#include <vector>

#include "storage/relation.h"
#include "storage/row_id_set.h"
#include "storage/symbol_table.h"

namespace seprec {

class Answer {
 public:
  explicit Answer(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return set_.size(); }
  bool empty() const { return set_.empty(); }

  // Adds a tuple (deduplicated).
  void Add(Row row) {
    SEPREC_CHECK(row.size() == arity_);
    if (set_.Insert(row, static_cast<uint32_t>(set_.size()),
                    [this](uint32_t id) { return this->row(id); })) {
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  bool Contains(Row row) const {
    SEPREC_CHECK(row.size() == arity_);
    return set_.Find(row, [this](uint32_t id) { return this->row(id); }) !=
           RowIdSet::kNone;
  }

  // Tuple `i` (0 <= i < size()), in the order the tuples were first added.
  Row row(size_t i) const {
    SEPREC_DCHECK(i < size());
    return Row(data_.data() + i * arity_, arity_);
  }

  // Sorted textual rendering "(a, b)" per tuple, for tests and tools.
  std::vector<std::string> ToStrings(const SymbolTable& symbols) const;

  // Set equality over raw Values, whatever order the tuples were added in.
  // Only meaningful when both answers were produced against the SAME
  // Database (symbol ids are per-SymbolTable). To compare answers across
  // databases, compare ToStrings() renderings instead.
  friend bool operator==(const Answer& a, const Answer& b) {
    if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!b.Contains(a.row(i))) return false;
    }
    return true;
  }
  friend bool operator!=(const Answer& a, const Answer& b) {
    return !(a == b);
  }

 private:
  size_t arity_;
  std::vector<Value> data_;  // row-major, size() * arity_ Values
  RowIdSet set_;             // ids index data_; counts arity-0 tuples too
};

}  // namespace seprec

#endif  // SEPREC_CORE_ANSWER_H_
