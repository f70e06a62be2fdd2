// Tests for the recovery state machine: fresh init, WAL replay,
// checkpointing, torn tails, strict/tolerant corruption handling, and
// manifest damage (DESIGN.md section 12).
#include "storage/recovery.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "storage/io.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    dir_ = StrCat(
        ::testing::TempDir(), "/seprec_recovery_",
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  // Mimics the service's load path: write-ahead, then apply.
  void LogAndApply(DurableStorage* storage, Database* db,
                   const TupleBatch& batch) {
    ASSERT_TRUE(storage->LogBatch(batch).ok());
    StatusOr<size_t> added = ApplyTupleBatch(db, batch);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }

  TupleBatch MakeBatch(const std::string& relation, int tag) {
    TupleBatch batch;
    batch.relation = relation;
    batch.arity = 2;
    batch.rows.push_back({TypedCell::Symbol(StrCat("v", tag)),
                          TypedCell::Symbol(StrCat("v", tag + 1))});
    return batch;
  }

  std::string WalPath(int id) { return StrCat(dir_, "/wal-", id, ".log"); }

  void DamageFile(const std::string& path, uint64_t at, char xor_mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(c ^ xor_mask));
  }

  std::string dir_;
};

TEST_F(RecoveryTest, FreshDirInitialisesWalAndManifest) {
  Database db;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &db, {}, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_TRUE(report.fresh);
  EXPECT_TRUE(std::filesystem::exists(StrCat(dir_, "/MANIFEST")));
  EXPECT_TRUE(std::filesystem::exists(WalPath(1)));
  EXPECT_EQ((*storage)->wal_bytes(), 0u);

  // Reopening the (empty but initialised) dir is a recovery, not an init.
  storage->reset();
  Database db2;
  auto again = DurableStorage::Open(dir_, &db2, {}, &report);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(report.fresh);
  EXPECT_EQ(report.wal_records_replayed, 0u);
}

TEST_F(RecoveryTest, ReplayRestoresTuplesAndExactGeneration) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  uint64_t live_generation = 0;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    for (int i = 0; i < 4; ++i) {
      LogAndApply(storage->get(), &db, MakeBatch("edge", i));
    }
    // A duplicate batch adds nothing and must not bump the generation —
    // replay has to reproduce that too.
    LogAndApply(storage->get(), &db, MakeBatch("edge", 0));
    live_generation = db.generation();
    ASSERT_EQ(db.Find("edge")->size(), 4u);
  }
  Database restored;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &restored, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 5u);
  ASSERT_NE(restored.Find("edge"), nullptr);
  EXPECT_EQ(restored.Find("edge")->size(), 4u);
  EXPECT_EQ(restored.generation(), live_generation);
  EXPECT_EQ(report.generation, live_generation);
}

TEST_F(RecoveryTest, DeleteRecordsReplayToSameStateAndGeneration) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  uint64_t live_generation = 0;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
    LogAndApply(storage->get(), &db, MakeBatch("edge", 3));
    // Delete one present row and one miss; then re-delete (a live no-op
    // that must also be a replay no-op — the generation counters would
    // otherwise diverge).
    TupleBatch del = MakeBatch("edge", 1);
    del.op = BatchOp::kDelete;
    del.rows.push_back({TypedCell::Symbol("ghost"),
                        TypedCell::Symbol("ghost")});
    LogAndApply(storage->get(), &db, del);
    LogAndApply(storage->get(), &db, del);
    ASSERT_EQ(db.Find("edge")->size(), 1u);
    live_generation = db.generation();
  }
  Database db2;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &db2, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 4u);
  ASSERT_NE(db2.Find("edge"), nullptr);
  EXPECT_EQ(db2.Find("edge")->size(), 1u);
  // The surviving row is the one the deletes never touched.
  std::istringstream probe("v3\tv4\n");
  auto dup = LoadRelationTsv(&db2, "edge", probe);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, 0u);
  EXPECT_EQ(db2.generation(), live_generation);
}

TEST_F(RecoveryTest, CheckpointAfterDeletesSnapshotsLiveRowsOnly) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
    LogAndApply(storage->get(), &db, MakeBatch("edge", 3));
    TupleBatch del = MakeBatch("edge", 1);
    del.op = BatchOp::kDelete;
    LogAndApply(storage->get(), &db, del);
    // The snapshot must not resurrect the tombstoned row.
    ASSERT_TRUE((*storage)->Checkpoint(db).ok());
  }
  Database db2;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &db2, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 0u);
  ASSERT_NE(db2.Find("edge"), nullptr);
  EXPECT_EQ(db2.Find("edge")->size(), 1u);
}

TEST_F(RecoveryTest, CheckpointRetiresWalAndRecoversFromSnapshot) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  uint64_t live_generation = 0;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    for (int i = 0; i < 3; ++i) {
      LogAndApply(storage->get(), &db, MakeBatch("edge", i));
    }
    EXPECT_GT((*storage)->wal_bytes(), 0u);
    auto info = (*storage)->Checkpoint(db);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->snapshot_file, "snapshot-2.seprec");
    EXPECT_EQ(info->generation, db.generation());
    EXPECT_GT(info->wal_bytes_truncated, 0u);
    EXPECT_EQ((*storage)->wal_bytes(), 0u);
    // The old epoch's WAL is gone; the new pair is current.
    EXPECT_FALSE(std::filesystem::exists(WalPath(1)));
    EXPECT_TRUE(std::filesystem::exists(WalPath(2)));
    EXPECT_TRUE(std::filesystem::exists(StrCat(dir_, "/snapshot-2.seprec")));
    // Post-checkpoint appends land in the new WAL.
    LogAndApply(storage->get(), &db, MakeBatch("edge", 10));
    live_generation = db.generation();
  }
  Database restored;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &restored, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.snapshot_file, "snapshot-2.seprec");
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(restored.Find("edge")->size(), 4u);
  EXPECT_EQ(restored.generation(), live_generation);
}

TEST_F(RecoveryTest, FailedCheckpointLeavesOldEpochRecoverable) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    for (int i = 0; i < 3; ++i) {
      LogAndApply(storage->get(), &db, MakeBatch("edge", i));
    }
    // The manifest rename is the commit point; failing there must leave
    // the old snapshot+WAL pair as the durable truth.
    ScopedFailpoint fp("manifest.rename", {});
    EXPECT_FALSE((*storage)->Checkpoint(db).ok());
  }
  Database restored;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &restored, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.snapshot_file, "");  // still the pre-checkpoint epoch
  EXPECT_EQ(report.wal_records_replayed, 3u);
  EXPECT_EQ(restored.Find("edge")->size(), 3u);
}

TEST_F(RecoveryTest, TornTailTruncatedAndReported) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
  }
  {
    // Simulate a crash mid-append: a full header declaring 64 payload
    // bytes, with only 3 of them on disk before the power went. (An
    // over-cap length would read as corruption, not a torn tail.)
    std::ofstream out(WalPath(1), std::ios::binary | std::ios::app);
    const unsigned char torn[] = {64,   0,    0,    0,     // payload length
                                  0xde, 0xad, 0xbe, 0xef,  // checksum
                                  'p',  'a',  'r'};        // 3 of 64 bytes
    out.write(reinterpret_cast<const char*>(torn), sizeof(torn));
  }
  Database restored;
  RecoveryReport report;
  auto storage = DurableStorage::Open(dir_, &restored, opts, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.torn_bytes_truncated, 11u);
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(restored.Find("edge")->size(), 1u);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("torn"), std::string::npos);
  // The truncation is durable: a second recovery sees a clean log.
  storage->reset();
  Database again;
  auto reopened = DurableStorage::Open(dir_, &again, opts, &report);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.torn_bytes_truncated, 0u);
}

TEST_F(RecoveryTest, MidLogCorruptionStrictFailsTolerantTruncates) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  uint64_t second_offset = 0;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
    second_offset = (*storage)->wal_bytes() + kWalHeaderSize;
    LogAndApply(storage->get(), &db, MakeBatch("edge", 2));
    LogAndApply(storage->get(), &db, MakeBatch("edge", 3));
  }
  // Flip a payload byte of the middle record: records after it are
  // intact, so this is mid-log corruption, not a torn tail.
  DamageFile(WalPath(1), second_offset + 10, 0x40);

  Database strict_db;
  auto strict = DurableStorage::Open(dir_, &strict_db, opts, nullptr);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(strict.status().message().find("--recover=tolerant"),
            std::string::npos)
      << strict.status().ToString();

  DurabilityOptions tolerant_opts = opts;
  tolerant_opts.tolerant = true;
  Database tolerant_db;
  RecoveryReport report;
  auto tolerant =
      DurableStorage::Open(dir_, &tolerant_db, tolerant_opts, &report);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_GT(report.corrupt_bytes_dropped, 0u);
  EXPECT_EQ(report.wal_records_replayed, 1u);  // only the record before
  EXPECT_EQ(tolerant_db.Find("edge")->size(), 1u);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("dropped"), std::string::npos);
}

TEST_F(RecoveryTest, CorruptManifestIsDataLoss) {
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, {}, nullptr);
    ASSERT_TRUE(storage.ok());
  }
  DamageFile(StrCat(dir_, "/MANIFEST"), 22, 0x01);  // a byte inside the body
  Database db;
  auto reopened = DurableStorage::Open(dir_, &db, {}, nullptr);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("manifest"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(RecoveryTest, DebrisWithoutManifestRefused) {
  std::filesystem::create_directories(dir_);
  { std::ofstream out(WalPath(1), std::ios::binary); }
  Database db;
  auto storage = DurableStorage::Open(dir_, &db, {}, nullptr);
  ASSERT_FALSE(storage.ok());
  EXPECT_EQ(storage.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(storage.status().message().find("no MANIFEST"),
            std::string::npos)
      << storage.status().ToString();
}

TEST_F(RecoveryTest, WalShorterThanManifestOffsetIsDataLoss) {
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, {}, nullptr);
    ASSERT_TRUE(storage.ok());
  }
  // Shear the WAL below the manifest's replay offset (the 8-byte header):
  // the manifest now points past the end of the file.
  std::filesystem::resize_file(WalPath(1), 4);
  Database db;
  auto reopened = DurableStorage::Open(dir_, &db, {}, nullptr);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(RecoveryTest, MissingSnapshotFileIsDataLoss) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
    ASSERT_TRUE((*storage)->Checkpoint(db).ok());
  }
  std::filesystem::remove(StrCat(dir_, "/snapshot-2.seprec"));
  Database db;
  auto reopened = DurableStorage::Open(dir_, &db, opts, nullptr);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("snapshot"), std::string::npos)
      << reopened.status().ToString();
}

// Recovery reads snapshot format v3 only. A MANIFEST naming a v1 or v2
// text snapshot fails like any other unreadable snapshot, naming it.
TEST_F(RecoveryTest, TextSnapshotNamedByManifestIsDataLoss) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  {
    Database db;
    auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_TRUE(storage.ok());
    LogAndApply(storage->get(), &db, MakeBatch("edge", 1));
    ASSERT_TRUE((*storage)->Checkpoint(db).ok());
  }
  const std::string snapshot = StrCat(dir_, "/snapshot-2.seprec");
  // The same edge as each text format wrote it, v2 with its row CRC.
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c("s:v1\ts:v2\n"));
  for (const std::string& text :
       {std::string("seprec-snapshot v1\nrelation edge 2\ns:v1\ts:v2\n"
                    "end\n"),
        StrCat("seprec-snapshot v2\nrelation edge 2\ns:v1\ts:v2\n"
               "tuples 1 crc ", crc, "\nend\n")}) {
    {
      std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
      out << text;
    }
    Database db;
    auto reopened = DurableStorage::Open(dir_, &db, opts, nullptr);
    ASSERT_FALSE(reopened.ok()) << text;
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(reopened.status().message().find(snapshot), std::string::npos)
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().message().find("is not a v3 segment file"),
              std::string::npos)
        << reopened.status().ToString();
  }
}

TEST_F(RecoveryTest, ShouldCheckpointTracksWalGrowth) {
  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  opts.checkpoint_bytes = 64;  // tiny threshold
  Database db;
  auto storage = DurableStorage::Open(dir_, &db, opts, nullptr);
  ASSERT_TRUE(storage.ok());
  EXPECT_FALSE((*storage)->ShouldCheckpoint());
  for (int i = 0; i < 4 && !(*storage)->ShouldCheckpoint(); ++i) {
    LogAndApply(storage->get(), &db, MakeBatch("edge", i));
  }
  EXPECT_TRUE((*storage)->ShouldCheckpoint());
  ASSERT_TRUE((*storage)->Checkpoint(db).ok());
  EXPECT_FALSE((*storage)->ShouldCheckpoint());
}

}  // namespace
}  // namespace seprec
