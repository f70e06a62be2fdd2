// Loading and saving relations as tab-separated files (the interchange
// format Datalog engines conventionally use for EDB facts).
//
// Each line is one tuple; columns are separated by a single '\t'. A column
// that parses entirely as a decimal integer becomes an integer Value,
// anything else an interned symbol. Empty lines and lines starting with
// '#' are skipped.
//
// Loads are two-phase: ParseRelationTsv reads and validates the whole
// stream into a TupleBatch (catching every malformed line before anything
// is applied), ApplyTupleBatch inserts it. The split is what makes the
// server's load op atomic — a malformed middle line can no longer leave a
// partial prefix applied — and gives the write-ahead log a unit whose
// apply cannot fail after the record is durable.
#ifndef SEPREC_STORAGE_IO_H_
#define SEPREC_STORAGE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "storage/database.h"
#include "util/status.h"

namespace seprec {

// How the TSV reader types one column.
enum class TokenKind {
  kInt,     // a decimal integer within the Value range
  kSymbol,  // anything not integer-shaped
  kBadInt,  // integer-shaped but outside the Value range
};

// Types `token` as the TSV reader types a column, storing an integer's
// value in *value. Integer-shaped tokens either parse within the Value
// range or are rejected outright — silently interning
// "99999999999999999999" as a symbol would make the row unjoinable with
// every in-range integer.
TokenKind ClassifyToken(const std::string& token, int64_t* value);

// One parsed cell with its typing decision (integer vs symbol) made at
// parse time, so WAL replay never re-classifies text.
struct TypedCell {
  bool is_int = false;
  int64_t int_value = 0;  // meaningful when is_int
  std::string symbol;     // meaningful when !is_int

  static TypedCell Int(int64_t v) {
    TypedCell c;
    c.is_int = true;
    c.int_value = v;
    return c;
  }
  static TypedCell Symbol(std::string s) {
    TypedCell c;
    c.symbol = std::move(s);
    return c;
  }
  bool operator==(const TypedCell& o) const {
    return is_int == o.is_int && int_value == o.int_value &&
           symbol == o.symbol;
  }
};

// What applying a batch does to the relation: insert its rows, or erase
// them (the DRed incremental-deletion path). The op is part of the WAL
// record, so replay re-applies deletions exactly as they ran live.
enum class BatchOp : uint8_t {
  kInsert,
  kDelete,
};

// A fully validated batch of tuples bound for one relation: the unit the
// loaders apply and the WAL logs.
struct TupleBatch {
  std::string relation;
  size_t arity = 0;
  BatchOp op = BatchOp::kInsert;
  std::vector<std::vector<TypedCell>> rows;  // every row has `arity` cells
};

// Phase 1: reads `in` to completion, validating every line against the
// arity of relation `name` (its existing arity, or the first data line's
// if absent). Errors carry line numbers; nothing is written to `db`.
StatusOr<TupleBatch> ParseRelationTsv(const Database& db,
                                      std::string_view name,
                                      std::istream& in);

// Phase 2. For BatchOp::kInsert: creates the relation on demand (arity
// mismatch with an existing relation is the only error), interns symbols,
// inserts rows, and bumps the database generation when any row was new.
// Returns the number of NEW tuples. For BatchOp::kDelete: erases the
// batch's rows from the relation (rows not present are ignored; a missing
// relation deletes nothing) and bumps the generation when any row was
// removed. Returns the number of rows REMOVED. Either way the generation
// bump is conditional on real change, so a WAL replay of the batch leaves
// the generation counter exactly where the live apply did.
StatusOr<size_t> ApplyTupleBatch(Database* db, const TupleBatch& batch);

// As above, and additionally reports the batch rows that actually changed
// the relation — the NEW rows of an insert, the REMOVED rows of a delete —
// as interned Value rows. This is what incremental view maintenance needs:
// the effective delta, duplicates and misses filtered out.
StatusOr<size_t> ApplyTupleBatch(Database* db, const TupleBatch& batch,
                                 std::vector<std::vector<Value>>* changed);

// ParseRelationTsv + ApplyTupleBatch. Returns the number of NEW tuples.
StatusOr<size_t> LoadRelationTsv(Database* db, std::string_view name,
                                 std::istream& in);

// File-path convenience.
StatusOr<size_t> LoadRelationTsvFile(Database* db, std::string_view name,
                                     const std::string& path);

// Writes every tuple of relation `name`, one line per tuple, columns
// tab-separated, rows in insertion order.
Status SaveRelationTsv(const Database& db, std::string_view name,
                       std::ostream& out);
Status SaveRelationTsvFile(const Database& db, std::string_view name,
                           const std::string& path);

}  // namespace seprec

#endif  // SEPREC_STORAGE_IO_H_
