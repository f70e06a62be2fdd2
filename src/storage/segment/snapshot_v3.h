// Snapshot format v3, the one at-rest format of a whole database:
// relations as sorted, compressed, memory-mappable segment files (see
// storage/segment/segment.h for the page format). Checkpoints write it
// and recovery reads it; no other snapshot format loads.
//
// Layout of a v3 file:
//   [0, 8)              magic "seprecS3"
//   [8, footer_offset)  4 KiB pages: per relation (alphabetical), its
//                       data pages then its aggregated pages
//   [footer_offset, +footer_size)
//                       footer: the full symbol table in id order, then
//                       one directory entry per relation (geometry: page
//                       offsets, per-page first rows, exact distincts)
//   last 16 bytes       u64 footer_offset, u32 footer_size,
//                       u32 CRC32C(footer)
// All integers little-endian. Every page carries its own CRC32C; the
// footer carries one of its own. There is no whole-file checksum — that
// is the point: a reader never needs to touch pages it does not visit.
//
// Loading is mmap-backed (PagedFileReader): the loader CRC-checks every
// page once up front — still far cheaper than parsing text — then
// attaches each relation's segment as its base extent, so row data is
// decoded per-page on first touch and the resident set is driven by the
// OS page cache. If the database's symbol table cannot adopt the stored
// ids verbatim (it already held other symbols), the loader falls back to
// materialising rows through Insert with remapped symbols — correct,
// just not zero-copy.
#ifndef SEPREC_STORAGE_SEGMENT_SNAPSHOT_V3_H_
#define SEPREC_STORAGE_SEGMENT_SNAPSHOT_V3_H_

#include <string>

#include "storage/database.h"
#include "util/status.h"

namespace seprec {

// The 8-byte magic every v3 file starts with.
inline constexpr char kSnapshotV3Magic[8] = {'s', 'e', 'p', 'r',
                                             'e', 'c', 'S', '3'};

// Writes every relation of `db` (alphabetically, skipping '$'-prefixed
// engine scratch) to `path` as a v3 segment file, atomically: temp file,
// fsync, durable rename, so a crash mid-save never destroys the previous
// file at `path`. The failpoints "snapshot.write", "snapshot.save" and
// "snapshot.rename" let the crash harness interrupt each step.
Status SaveSnapshotV3File(const Database& db, const std::string& path);

// Loads a v3 file into `db`: interns the stored symbols, then attaches
// each relation's segment mmap-backed (or materialises, see above).
// Bumps the data generation once at the end. A missing file is
// NotFound; an empty file, or one too short for or without the v3 magic,
// is InvalidArgument; a damaged trailer, footer or page fails up front
// with a DataLossError (a page by its index). "snapshot.load" fires
// first.
Status LoadSnapshotV3File(Database* db, const std::string& path);

// Compaction: re-seats every relation of `db` onto the segments of the
// v3 file at `path`, which must have just been written from `db` (the
// checkpoint flow guarantees this). Each relation with stored rows is
// Clear()ed and re-attached to its fresh, delta-free segment; relation
// pointers are untouched, so compiled plans keep working. Does NOT bump
// the generation — the visible content is unchanged.
Status CompactToSnapshotSegments(Database* db, const std::string& path);

}  // namespace seprec

#endif  // SEPREC_STORAGE_SEGMENT_SNAPSHOT_V3_H_
