#include "storage/recovery.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "storage/io.h"
#include "storage/segment/snapshot_v3.h"
#include "storage/snapshot.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "seprec-manifest v1";

struct Manifest {
  uint64_t id = 1;
  std::string snapshot;  // empty = none
  std::string wal;
  uint64_t wal_offset = kWalHeaderSize;
  uint64_t generation = 0;
};

std::string JoinPath(const std::string& dir, const std::string& name) {
  return StrCat(dir, "/", name);
}

std::string SnapshotName(uint64_t id) {
  return StrCat("snapshot-", id, ".seprec");
}

std::string WalName(uint64_t id) { return StrCat("wal-", id, ".log"); }

StatusOr<uint64_t> ParseU64(std::string_view what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size()) {
    return InvalidArgumentError(
        StrCat("manifest: bad ", what, " '", text, "'"));
  }
  return static_cast<uint64_t>(v);
}

std::string SerializeManifest(const Manifest& m) {
  std::string body = StrCat(kManifestHeader, "\n", "id ", m.id, "\n",
                            "snapshot ",
                            m.snapshot.empty() ? "none" : m.snapshot, "\n",
                            "wal ", m.wal, " ", m.wal_offset, "\n",
                            "generation ", m.generation, "\n");
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c(body));
  return StrCat(body, "crc ", crc, "\n");
}

StatusOr<Manifest> ParseManifest(const std::string& text) {
  // The crc line covers every byte before it; verify before trusting any
  // field.
  size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos || text.empty() ||
      text.back() != '\n' ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return DataLossError("manifest: missing crc line");
  }
  std::string declared_hex =
      text.substr(crc_pos + 4, text.size() - crc_pos - 5);
  errno = 0;
  char* end = nullptr;
  unsigned long long declared = std::strtoull(declared_hex.c_str(), &end, 16);
  if (declared_hex.empty() || errno != 0 ||
      end != declared_hex.c_str() + declared_hex.size() ||
      declared > 0xFFFFFFFFull) {
    return DataLossError(
        StrCat("manifest: bad crc line 'crc ", declared_hex, "'"));
  }
  uint32_t computed = Crc32c(text.data(), crc_pos);
  if (computed != static_cast<uint32_t>(declared)) {
    return DataLossError("manifest: checksum mismatch — manifest corrupt");
  }

  std::istringstream in(text.substr(0, crc_pos));
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return DataLossError("manifest: missing header");
  }
  Manifest m;
  bool saw_id = false;
  bool saw_snapshot = false;
  bool saw_wal = false;
  bool saw_generation = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = StrSplit(line, ' ');
    if (parts[0] == "id" && parts.size() == 2) {
      SEPREC_ASSIGN_OR_RETURN(m.id, ParseU64("id", parts[1]));
      saw_id = true;
    } else if (parts[0] == "snapshot" && parts.size() == 2) {
      m.snapshot = parts[1] == "none" ? "" : parts[1];
      saw_snapshot = true;
    } else if (parts[0] == "wal" && parts.size() == 3) {
      m.wal = parts[1];
      SEPREC_ASSIGN_OR_RETURN(m.wal_offset,
                              ParseU64("wal offset", parts[2]));
      saw_wal = true;
    } else if (parts[0] == "generation" && parts.size() == 2) {
      SEPREC_ASSIGN_OR_RETURN(m.generation,
                              ParseU64("generation", parts[1]));
      saw_generation = true;
    } else {
      return DataLossError(StrCat("manifest: unknown line '", line, "'"));
    }
  }
  if (!saw_id || !saw_snapshot || !saw_wal || !saw_generation) {
    return DataLossError("manifest: missing field");
  }
  return m;
}

StatusOr<Manifest> LoadManifestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError(StrCat("cannot open '", path, "'"));
  std::ostringstream text;
  text << in.rdbuf();
  return ParseManifest(text.str());
}

Status SaveManifestFile(const std::string& path, const Manifest& m) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("manifest.write"));
  const std::string tmp = StrCat(path, ".tmp");
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) {
      return InternalError(StrCat("cannot write '", tmp, "'"));
    }
    out << SerializeManifest(m);
    out.flush();
    if (!out) return InternalError(StrCat("write to '", tmp, "' failed"));
  }
  SEPREC_RETURN_IF_ERROR(FsyncPath(tmp));
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("manifest.rename"));
  return DurableRename(tmp, path);
}

// A data dir without a MANIFEST must also hold no snapshot/WAL debris —
// logs with no manifest means the manifest was destroyed, and guessing
// which files are current would be silent data loss.
StatusOr<bool> DirHasDurabilityFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return InternalError(
        StrCat("cannot open data dir '", dir, "' (errno ", errno, ")"));
  }
  bool found = false;
  while (dirent* e = ::readdir(d)) {
    std::string_view name = e->d_name;
    if (StartsWith(name, "wal-") || StartsWith(name, "snapshot-")) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

}  // namespace

StatusOr<std::unique_ptr<DurableStorage>> DurableStorage::Open(
    const std::string& dir, Database* db, DurabilityOptions options,
    RecoveryReport* report) {
  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport();

  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return InternalError(
        StrCat("cannot create data dir '", dir, "' (errno ", errno, ")"));
  }

  std::unique_ptr<DurableStorage> storage(new DurableStorage(dir, options));
  const std::string manifest_path = JoinPath(dir, kManifestName);
  StatusOr<Manifest> loaded = LoadManifestFile(manifest_path);
  if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
    SEPREC_ASSIGN_OR_RETURN(bool debris, DirHasDurabilityFiles(dir));
    if (debris) {
      return DataLossError(
          StrCat("data dir '", dir, "' has WAL/snapshot files but no ",
                 "MANIFEST — refusing to guess which are current"));
    }
    // Fresh directory: create wal-1.log and a manifest naming it.
    Manifest m;
    m.id = 1;
    m.wal = WalName(1);
    m.wal_offset = kWalHeaderSize;
    m.generation = db->generation();
    SEPREC_ASSIGN_OR_RETURN(
        storage->wal_,
        WalWriter::Open(JoinPath(dir, m.wal), options.fsync, 0));
    SEPREC_RETURN_IF_ERROR(SaveManifestFile(manifest_path, m));
    storage->checkpoint_id_ = 1;
    rep.fresh = true;
    rep.generation = db->generation();
    rep.notes.push_back(StrCat("initialised fresh data dir '", dir, "'"));
    return storage;
  }
  if (!loaded.ok()) return loaded.status();
  const Manifest& m = *loaded;
  storage->checkpoint_id_ = m.id;

  // 1. Snapshot. Written atomically, so a load failure is real damage —
  // no tolerant degrade exists (there is no "prefix" of a snapshot).
  if (!m.snapshot.empty()) {
    const std::string snap_path = JoinPath(dir, m.snapshot);
    if (Status s = LoadSnapshotFile(db, snap_path); !s.ok()) {
      return DataLossError(StrCat("snapshot '", snap_path,
                                  "' failed to load: ", s.message()));
    }
    rep.snapshot_file = m.snapshot;
  }

  // 2. Generation: re-seat at the snapshot's value so the per-batch bumps
  // of WAL replay land exactly where the pre-crash counter was.
  db->SetGeneration(m.generation);

  // 3. WAL scan.
  const std::string wal_path = JoinPath(dir, m.wal);
  SEPREC_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(wal_path));
  if (m.wal_offset > wal.file_size) {
    return DataLossError(StrCat("manifest points at WAL offset ",
                                m.wal_offset, " but '", m.wal, "' has only ",
                                wal.file_size, " bytes"));
  }
  uint64_t replay_end = wal.valid_end;
  switch (wal.tail) {
    case WalTail::kClean:
      break;
    case WalTail::kTorn: {
      // Expected crash debris: drop it. Nothing acknowledged can be in a
      // torn tail (an fsynced record is never partial).
      uint64_t torn = wal.file_size - wal.valid_end;
      SEPREC_RETURN_IF_ERROR(TruncateWal(wal_path, wal.valid_end));
      rep.torn_bytes_truncated = torn;
      rep.notes.push_back(StrCat("truncated torn WAL tail: ", torn,
                                 " byte(s) at offset ", wal.valid_end, " (",
                                 wal.detail, ")"));
      break;
    }
    case WalTail::kCorrupt: {
      if (!options.tolerant) {
        return DataLossError(StrCat(
            "WAL '", m.wal, "' is corrupt: ", wal.detail,
            "; rerun with --recover=tolerant to truncate at the last ",
            "valid record (offset ", wal.valid_end, ", losing ",
            wal.file_size - wal.valid_end, " byte(s))"));
      }
      if (wal.valid_end < kWalHeaderSize) {
        return DataLossError(StrCat("WAL '", m.wal,
                                    "' is corrupt at the header: ",
                                    wal.detail,
                                    "; nothing can be salvaged"));
      }
      uint64_t dropped = wal.file_size - wal.valid_end;
      SEPREC_RETURN_IF_ERROR(TruncateWal(wal_path, wal.valid_end));
      rep.corrupt_bytes_dropped = dropped;
      rep.notes.push_back(StrCat(
          "tolerant recovery: dropped ", dropped,
          " corrupt byte(s) at offset ", wal.valid_end, " (", wal.detail,
          "); every record before the corruption was replayed"));
      break;
    }
  }

  // 4. Replay every record at or past the manifest's offset.
  for (const WalRecord& record : wal.records) {
    if (record.offset < m.wal_offset) continue;
    if (StatusOr<size_t> applied = ApplyTupleBatch(db, record.batch);
        !applied.ok()) {
      return DataLossError(StrCat("WAL '", m.wal, "' record at offset ",
                                  record.offset, " failed to apply: ",
                                  applied.status().message()));
    }
    ++rep.wal_records_replayed;
  }
  rep.wal_bytes_replayed =
      replay_end > m.wal_offset ? replay_end - m.wal_offset : 0;

  // 5. Reopen for append at the end of the valid prefix.
  SEPREC_ASSIGN_OR_RETURN(
      storage->wal_,
      WalWriter::Open(wal_path, options.fsync, replay_end));
  rep.generation = db->generation();
  return storage;
}

Status DurableStorage::LogBatch(const TupleBatch& batch) {
  return wal_->Append(batch);
}

Status DurableStorage::Sync() { return wal_->Sync(); }

StatusOr<CheckpointInfo> DurableStorage::Checkpoint(const Database& db) {
  const uint64_t next_id = checkpoint_id_ + 1;
  const std::string snap_name = SnapshotName(next_id);
  const std::string wal_name = WalName(next_id);
  const std::string snap_path = JoinPath(dir_, snap_name);
  const std::string wal_path = JoinPath(dir_, wal_name);
  const uint64_t retired_bytes = wal_bytes();

  // 1. New snapshot, durably in place under its (not-yet-referenced)
  // name, as a v3 segment file (atomic write-temp + rename); recovery
  // sniffs the format, so older v1/v2 text snapshots still load.
  SEPREC_RETURN_IF_ERROR(SaveSnapshotV3File(db, snap_path));

  // 2. Fresh WAL for the new epoch. An orphan from an interrupted earlier
  // checkpoint may exist; it is unreferenced garbage, so clear it first.
  ::unlink(wal_path.c_str());
  SEPREC_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> fresh_wal,
      WalWriter::Open(wal_path, options_.fsync, 0));

  // 3. Atomically repoint the manifest. Until this rename lands, recovery
  // still uses the old snapshot+WAL pair, which is untouched.
  Manifest m;
  m.id = next_id;
  m.snapshot = snap_name;
  m.wal = wal_name;
  m.wal_offset = kWalHeaderSize;
  m.generation = db.generation();
  SEPREC_RETURN_IF_ERROR(
      SaveManifestFile(JoinPath(dir_, kManifestName), m));

  // 4. The new epoch is durable: switch the writer and retire the old
  // files (best-effort — leftovers are unreferenced and harmless).
  const std::string old_wal = JoinPath(dir_, WalName(checkpoint_id_));
  const std::string old_snap = JoinPath(dir_, SnapshotName(checkpoint_id_));
  wal_ = std::move(fresh_wal);
  checkpoint_id_ = next_id;
  ::unlink(old_wal.c_str());
  ::unlink(old_snap.c_str());

  CheckpointInfo info;
  info.snapshot_file = snap_name;
  info.generation = m.generation;
  info.wal_bytes_truncated = retired_bytes;
  return info;
}

bool DurableStorage::ShouldCheckpoint() const {
  return options_.checkpoint_bytes > 0 &&
         wal_bytes() > options_.checkpoint_bytes;
}

uint64_t DurableStorage::wal_bytes() const {
  return wal_ != nullptr && wal_->offset() > kWalHeaderSize
             ? wal_->offset() - kWalHeaderSize
             : 0;
}

}  // namespace seprec
