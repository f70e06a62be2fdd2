// Write-ahead log of EDB mutations (DESIGN.md section 12).
//
// The WAL is an append-only binary file. It starts with an 8-byte magic
// ("seprecW1") and then carries length-prefixed, CRC32C-checksummed
// records:
//
//   [u32 payload_len LE][u32 crc32c(payload) LE][payload]
//
// A payload encodes one TupleBatch — the unit the server's load op
// applies — with the TSV typing decision baked in:
//
//   u8  record type (1 = insert batch, 2 = delete batch; the two share
//       the layout below — the type byte IS the BatchOp)
//   u16 relation name length LE, name bytes (so at most
//       kMaxRelationNameBytes)
//   u32 arity LE (at least 1)
//   u32 row count LE
//   per row, per cell: u8 tag (0 = symbol, 1 = int);
//     int:    i64 value LE
//     symbol: u32 byte length LE, bytes
//
// Replay therefore never re-tokenises text, which is what makes recovery
// measurably faster than re-loading the equivalent TSV (bench micro_wal).
//
// Tail discipline (LevelDB-style): a record that runs off the end of the
// file, or whose checksum fails on the LAST record, is a torn tail — the
// expected debris of a crash mid-append — and is truncated on recovery. A
// checksum failure on a record that is NOT last is mid-log corruption:
// bytes after it were written through the same append path, so the file
// was damaged after the fact, and recovery refuses it (or truncates under
// tolerant mode, reporting exactly what was dropped).
#ifndef SEPREC_STORAGE_WAL_H_
#define SEPREC_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/io.h"
#include "util/status.h"

namespace seprec {

// When appended records reach the disk. `kAlways` fsyncs after every
// append (an acknowledged load survives kill -9); `kBatch` fsyncs only on
// explicit Sync()/checkpoint (a crash can lose the unsynced suffix but
// never corrupts what precedes it); `kOff` never fsyncs (tests, benches).
enum class FsyncPolicy { kAlways, kBatch, kOff };

// Parses "always"/"batch"/"off".
StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view name);
std::string_view FsyncPolicyToString(FsyncPolicy policy);

// Size of the file-header magic, i.e. the offset of the first record.
inline constexpr uint64_t kWalHeaderSize = 8;

class WalWriter {
 public:
  // Opens `path` for appending, creating it (with the magic header,
  // fsynced) if absent. `start_offset` must be the end of the valid
  // prefix (ReadWal's valid_end after recovery, or the current file size
  // for a freshly created/cleanly closed log); bytes past it are
  // truncated away before the first append.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                   FsyncPolicy policy,
                                                   uint64_t start_offset);
  // Convenience: open a fresh or cleanly-closed log at its current size.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                   FsyncPolicy policy);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record. Under FsyncPolicy::kAlways the record is fsynced
  // before returning — when Append returns OK the batch survives kill -9.
  // A batch whose relation name exceeds kMaxRelationNameBytes, whose
  // arity is 0, or which encodes above the record cap is refused with
  // InvalidArgument before anything is written.
  Status Append(const TupleBatch& batch);

  // Forces everything appended so far to disk (kBatch's checkpoint hook;
  // a no-op under kOff).
  Status Sync();

  // Byte offset one past the last appended record.
  uint64_t offset() const { return offset_; }
  const std::string& path() const { return path_; }
  FsyncPolicy policy() const { return policy_; }

 private:
  WalWriter(std::string path, int fd, FsyncPolicy policy, uint64_t offset)
      : path_(std::move(path)), fd_(fd), policy_(policy), offset_(offset) {}

  std::string path_;
  int fd_;
  FsyncPolicy policy_;
  uint64_t offset_;
};

// One decoded record with the offset its bytes start at.
struct WalRecord {
  TupleBatch batch;
  uint64_t offset = 0;
};

// The verdict ReadWal reaches about the bytes after the valid prefix.
enum class WalTail {
  kClean,    // the file ends exactly at the last valid record
  kTorn,     // a partial/garbled FINAL record: truncate and carry on
  kCorrupt,  // a garbled record with valid-shaped bytes after it, or a
             // bad file header: refuse (tolerant mode may truncate)
};

struct WalReadResult {
  std::vector<WalRecord> records;  // every record of the valid prefix
  uint64_t valid_end = 0;          // offset one past the last valid record
  WalTail tail = WalTail::kClean;
  uint64_t file_size = 0;
  std::string detail;  // human-readable diagnosis for kTorn/kCorrupt
};

// Scans the whole log. IO errors (unreadable file) fail the call; torn
// tails and corruption are reported in the result, not as errors — the
// recovery state machine decides what they mean.
StatusOr<WalReadResult> ReadWal(const std::string& path);

// Truncates `path` to `size` bytes and fsyncs it (recovery's torn-tail
// removal).
Status TruncateWal(const std::string& path, uint64_t size);

// Durable-write helpers shared by the snapshot writer and the manifest:
// the write-temp / fsync-file / rename / fsync-directory dance that makes
// a replacement atomic under crash.
Status FsyncPath(const std::string& path);
Status FsyncParentDir(const std::string& path);
// rename(from, to) followed by an fsync of the containing directory; after
// it returns OK the new name survives a crash.
Status DurableRename(const std::string& from, const std::string& to);

}  // namespace seprec

#endif  // SEPREC_STORAGE_WAL_H_
