// Whole-database snapshots: a typed text format that round-trips every
// relation (including which columns are integers vs symbols — plain TSV
// cannot distinguish the symbol "42" from the integer 42).
//
// Checkpoints write format v3 (segment/snapshot_v3.h). LoadSnapshotFile
// reads every format: it sniffs v3 and reads v1/v2 text, so older data
// directories still recover. SaveSnapshot/SaveSnapshotFile write v2; they
// produce the fixtures for the v1/v2 reader's tests and benches.
//
// Text format (v2; the loader accepts v1 too):
//   seprec-snapshot v2
//   relation <name> <arity>
//   <value>\t<value>...          one line per tuple
//   ...
//   tuples <n> crc <hex>         per-relation trailer; the CRC32C covers
//                                the relation's tuple lines exactly as
//                                written (v1 trailers carry no crc and
//                                load without verification)
//   end
// Values are encoded as `s:<escaped symbol>` or `i:<decimal>`; symbols
// escape backslash, tab, and newline as \\ \t \n. A relation name may
// appear at most once per stream — a duplicate header is how a spliced
// or double-written file presents, and is rejected.
//
// SaveSnapshotFile is atomic: it writes `<path>.tmp`, fsyncs, renames
// over `path`, and fsyncs the directory, so a crash mid-save can never
// destroy the previous snapshot.
#ifndef SEPREC_STORAGE_SNAPSHOT_H_
#define SEPREC_STORAGE_SNAPSHOT_H_

#include <iosfwd>
#include <string>

#include "storage/database.h"
#include "util/status.h"

namespace seprec {

// Writes every relation of `db` (alphabetically) to `out`, except
// '$'-prefixed engine scratch — derivable, process-local state that must
// not be resurrected into a fresh process.
Status SaveSnapshot(const Database& db, std::ostream& out);
Status SaveSnapshotFile(const Database& db, const std::string& path);

// Loads a snapshot into `db` (relations are created or appended to;
// arity mismatches fail).
Status LoadSnapshot(Database* db, std::istream& in);
Status LoadSnapshotFile(Database* db, const std::string& path);

}  // namespace seprec

#endif  // SEPREC_STORAGE_SNAPSHOT_H_
