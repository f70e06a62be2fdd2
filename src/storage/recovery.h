// DurableStorage: the crash-safe persistence layer under the query
// service (DESIGN.md section 12).
//
// A data directory holds exactly three kinds of file:
//
//   MANIFEST             self-checksummed text naming the current
//                        checkpoint id, snapshot file (or none), WAL file
//                        + replay offset, and the Database generation the
//                        snapshot was taken at
//   snapshot-<id>.seprec atomic whole-database snapshot, written as a v3
//                        segment file (segment/snapshot_v3.h)
//   wal-<id>.log         append-only WAL of TupleBatch records (wal.h)
//
// Invariants the checkpoint protocol maintains:
//   - MANIFEST is replaced atomically and only after everything it names
//     is durable, so the files it points at are always a consistent pair;
//   - the WAL named by MANIFEST is never truncated or switched before the
//     new MANIFEST is durable, so a crash anywhere inside a checkpoint
//     recovers from the OLD snapshot+WAL with nothing lost;
//   - files not named by MANIFEST are garbage from an interrupted
//     checkpoint and are deleted/overwritten freely.
//
// Recovery (Open) is a strict state machine:
//   read MANIFEST -> load snapshot -> re-seat the generation counter ->
//   replay WAL from the manifest offset -> truncate a torn tail ->
//   open the WAL for append.
// A torn tail (a crash mid-append) is normal and silently truncated,
// reported in the RecoveryReport. Mid-log corruption is never normal:
// strict mode fails with an offset/record diagnostic; tolerant mode
// truncates at the last valid record and reports exactly what was
// dropped.
//
// Thread model: borrowed by QueryService and called only under its db
// mutex — one mutator, no internal locking.
#ifndef SEPREC_STORAGE_RECOVERY_H_
#define SEPREC_STORAGE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/wal.h"
#include "util/status.h"

namespace seprec {

struct DurabilityOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  // Mid-log WAL corruption: false -> Open fails; true -> truncate at the
  // last valid record and report the dropped suffix.
  bool tolerant = false;
  // LogBatch marks ShouldCheckpoint() once the WAL exceeds this many
  // bytes; 0 disables the hint (explicit checkpoints only).
  uint64_t checkpoint_bytes = 64ull << 20;
};

// What Open did, for operator-facing logs and the crash harness.
struct RecoveryReport {
  bool fresh = false;              // directory was initialised, not recovered
  std::string snapshot_file;       // loaded snapshot, empty if none
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_replayed = 0;
  uint64_t torn_bytes_truncated = 0;  // partial final record dropped
  uint64_t corrupt_bytes_dropped = 0; // tolerant-mode mid-log truncation
  uint64_t generation = 0;         // database generation after recovery
  std::vector<std::string> notes;  // human-readable detail lines
};

// Checkpoint() outcome.
struct CheckpointInfo {
  std::string snapshot_file;
  uint64_t generation = 0;
  uint64_t wal_bytes_truncated = 0;  // size of the retired WAL's records
};

class DurableStorage {
 public:
  // Opens (creating on first use) data directory `dir` and recovers `db`
  // from it. `db` is borrowed and should be empty — recovery owns its
  // contents. On success *report describes what happened.
  static StatusOr<std::unique_ptr<DurableStorage>> Open(
      const std::string& dir, Database* db, DurabilityOptions options,
      RecoveryReport* report);

  // Appends one batch to the WAL (write-ahead: call BEFORE applying the
  // batch to the database). Under FsyncPolicy::kAlways the batch is
  // durable when this returns OK.
  Status LogBatch(const TupleBatch& batch);

  // Flushes the WAL (FsyncPolicy::kBatch's hook).
  Status Sync();

  // Snapshots `db`, atomically repoints the MANIFEST, and retires the old
  // WAL. On failure the previous snapshot+WAL pair is still the durable
  // truth and appends continue against it.
  StatusOr<CheckpointInfo> Checkpoint(const Database& db);

  // True once the WAL has outgrown options.checkpoint_bytes.
  bool ShouldCheckpoint() const;

  // Bytes of record data in the live WAL (excludes the file header).
  uint64_t wal_bytes() const;

  const std::string& dir() const { return dir_; }
  FsyncPolicy fsync_policy() const { return options_.fsync; }

 private:
  DurableStorage(std::string dir, DurabilityOptions options)
      : dir_(std::move(dir)), options_(options) {}

  std::string dir_;
  DurabilityOptions options_;
  uint64_t checkpoint_id_ = 1;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_RECOVERY_H_
