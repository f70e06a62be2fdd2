// SymbolTable: bidirectional interning of string constants.
//
// All string constants in a Database share one SymbolTable, so symbol
// equality is id equality and tuples store fixed-width Values.
//
// Thread model: unlike Relation (single mutator, readers only while no
// mutator runs), the symbol table is fully thread-safe. The query service
// renders result tuples to strings on session threads while another
// request's evaluation interns new constants, so lookups and interning
// genuinely overlap; a reader/writer lock covers that. Two properties make
// the locking cheap and the returned references safe:
//   - ids are assigned once and never reassigned, so a Value obtained from
//     Intern stays valid for the table's lifetime, and
//   - the deque keeps element addresses stable, so NameOf's reference (and
//     the map's string_view keys, which point into stored names including
//     short-string buffers) never dangles as the table grows.
// Hot evaluation paths compare Values, not strings, so the lock is only
// taken at the edges (parsing constants in, rendering answers out).
#ifndef SEPREC_STORAGE_SYMBOL_TABLE_H_
#define SEPREC_STORAGE_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "storage/value.h"

namespace seprec {

class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the Value for `name`, interning it on first use.
  Value Intern(std::string_view name);

  // Returns the Value for `name` if already interned, otherwise nullopt-like
  // behaviour via `found`.
  bool TryFind(std::string_view name, Value* value) const;

  // Returns the spelling of an interned symbol. `id` must be valid. The
  // reference stays valid for the table's lifetime (deque stability).
  const std::string& NameOf(uint32_t id) const;

  // Renders any Value: symbol spelling or decimal integer.
  std::string ToString(Value v) const;

  size_t size() const;

  // Holds the table's read lock across a batch of renderings, so a whole
  // answer renders under one lock acquisition instead of one per value.
  // Interning waits while a Reader lives; keep it short.
  class Reader {
   public:
    explicit Reader(const SymbolTable& table)
        : table_(table), lock_(table.mu_) {}

    // Appends v's rendering to *out; ToString renders through this too.
    void Append(Value v, std::string* out) const;

   private:
    const SymbolTable& table_;
    std::shared_lock<std::shared_mutex> lock_;
  };

 private:
  // Deque keeps element addresses stable, so the map's string_view keys
  // (which point into stored names, including short-string buffers) never
  // dangle as the table grows.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  mutable std::shared_mutex mu_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_SYMBOL_TABLE_H_
