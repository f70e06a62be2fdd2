// Tests for the write-ahead log: record round-trips, the torn-vs-corrupt
// tail verdicts, truncation, and writer reopen semantics (DESIGN.md
// section 12).
#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "storage/io.h"
#include "util/crc32c.h"

namespace seprec {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/seprec_wal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadFileBytes() {
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
  }
  void WriteFileBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TupleBatch MakeBatch(const std::string& relation, int tag) {
  TupleBatch batch;
  batch.relation = relation;
  batch.arity = 2;
  batch.rows.push_back(
      {TypedCell::Symbol("a" + std::to_string(tag)), TypedCell::Int(tag)});
  batch.rows.push_back(
      {TypedCell::Symbol("b" + std::to_string(tag)),
       TypedCell::Int(-tag * 1000)});
  return batch;
}

TEST_F(WalTest, RoundTripPreservesTypesAndOffsets) {
  std::vector<uint64_t> offsets;
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->offset(), kWalHeaderSize);
    for (int i = 1; i <= 3; ++i) {
      offsets.push_back((*writer)->offset());
      ASSERT_TRUE((*writer)->Append(MakeBatch("edge", i)).ok());
    }
  }
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->tail, WalTail::kClean);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->valid_end, read->file_size);
  for (int i = 0; i < 3; ++i) {
    const WalRecord& rec = read->records[static_cast<size_t>(i)];
    EXPECT_EQ(rec.offset, offsets[static_cast<size_t>(i)]);
    EXPECT_EQ(rec.batch.relation, "edge");
    EXPECT_EQ(rec.batch.arity, 2u);
    ASSERT_EQ(rec.batch.rows.size(), 2u);
    // The typing decision survives: symbols stay symbols, ints stay ints.
    EXPECT_FALSE(rec.batch.rows[0][0].is_int);
    EXPECT_EQ(rec.batch.rows[0][0].symbol, "a" + std::to_string(i + 1));
    EXPECT_TRUE(rec.batch.rows[0][1].is_int);
    EXPECT_EQ(rec.batch.rows[0][1].int_value, i + 1);
    EXPECT_EQ(rec.batch.rows[1][1].int_value, -(i + 1) * 1000);
  }
}

// A record's rows must take bytes, so the reader can bound its row count
// by the payload; arity 0 is refused before it reaches the log.
TEST_F(WalTest, EmptyBatchRoundTripsAndZeroArityIsRefused) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    TupleBatch flag;
    flag.relation = "flag";
    flag.arity = 0;
    flag.rows.push_back({});
    const uint64_t before = (*writer)->offset();
    EXPECT_EQ((*writer)->Append(flag).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ((*writer)->offset(), before);
    TupleBatch empty;
    empty.relation = "nothing";
    empty.arity = 3;
    ASSERT_TRUE((*writer)->Append(empty).ok());
  }
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kClean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].batch.relation, "nothing");
  EXPECT_EQ(read->records[0].batch.arity, 3u);
  EXPECT_TRUE(read->records[0].batch.rows.empty());
}

// Names are stored with a u16 length: the longest one round-trips, and
// one byte more is refused with the log left as it was.
TEST_F(WalTest, OversizedRelationNameIsRefused) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(MakeBatch(std::string(kMaxRelationNameBytes, 'r'), 1))
            .ok());
  }
  const std::string before = ReadFileBytes();
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    Status status = (*writer)->Append(
        MakeBatch(std::string(kMaxRelationNameBytes + 1, 'r'), 2));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ((*writer)->offset(), before.size());
  }
  EXPECT_EQ(ReadFileBytes(), before);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kClean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].batch.relation,
            std::string(kMaxRelationNameBytes, 'r'));
}

// Replay creates each batch's relation, so a name CreateRelation refuses
// (the reserved stored-rows spelling p') is refused before it is logged.
TEST_F(WalTest, ReservedRelationNameIsRefused) {
  auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
  ASSERT_TRUE(writer.ok());
  const uint64_t before = (*writer)->offset();
  Status status =
      (*writer)->Append(MakeBatch(Database::StoredRowsName("tc"), 2));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ((*writer)->offset(), before);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
}

// A 19-byte record whose CRC is correct but whose counts the payload
// cannot hold: the decoder must refuse it before sizing anything, with
// the usual verdicts — torn as the last record, corrupt before another.
TEST_F(WalTest, WildCountsAreDecodeFailuresNotAllocations) {
  auto put_u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  auto record = [&](uint32_t arity, uint32_t row_count) {
    std::string payload("\x01\x00\x00", 3);  // insert, empty name
    put_u32(&payload, arity);
    put_u32(&payload, row_count);
    std::string out;
    put_u32(&out, static_cast<uint32_t>(payload.size()));
    put_u32(&out, Crc32c(payload));
    return out + payload;
  };
  ASSERT_TRUE(WalWriter::Open(path_, FsyncPolicy::kOff).ok());
  const std::string header = ReadFileBytes();
  ASSERT_EQ(header.size(), kWalHeaderSize);
  // (arity, row count) pairs; arity 0 rows would take no bytes at all.
  const std::pair<uint32_t, uint32_t> wild_counts[] = {
      {0xFFFFFFFF, 0xFFFFFFFF}, {1, 0xFFFFFFFF}, {0xFFFFFFFF, 1},
      {0, 0xFFFFFFFF}, {0, 0}};
  for (const auto& [arity, rows] : wild_counts) {
    const std::string wild = record(arity, rows);
    ASSERT_EQ(wild.size(), 19u);
    WriteFileBytes(header + wild);
    auto read = ReadWal(path_);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->tail, WalTail::kTorn) << arity << " x " << rows;
    EXPECT_TRUE(read->records.empty());
    EXPECT_EQ(read->valid_end, kWalHeaderSize);
    EXPECT_NE(read->detail.find("does not decode"), std::string::npos)
        << read->detail;

    WriteFileBytes(header + wild + record(1, 0));
    read = ReadWal(path_);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->tail, WalTail::kCorrupt) << arity << " x " << rows;
    EXPECT_TRUE(read->records.empty());
  }
}

TEST_F(WalTest, EmptyFileIsTornAtZero) {
  WriteFileBytes("");
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kTorn);
  EXPECT_EQ(read->valid_end, 0u);
  EXPECT_TRUE(read->records.empty());
}

TEST_F(WalTest, BadMagicIsCorrupt) {
  WriteFileBytes("notTheW1some more bytes");
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kCorrupt);
  EXPECT_EQ(read->valid_end, 0u);
  EXPECT_NE(read->detail.find("magic"), std::string::npos) << read->detail;
}

TEST_F(WalTest, TruncatedFinalRecordIsTorn) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 2)).ok());
  }
  std::string bytes = ReadFileBytes();
  uint64_t full = bytes.size();
  // Cut the final record short: everything from its header to one byte
  // before its end must scan as torn with valid_end after record 1.
  auto clean = ReadWal(path_);
  ASSERT_TRUE(clean.ok());
  const uint64_t second_start = clean->records[1].offset;
  for (uint64_t cut : {second_start + 1, second_start + 7,
                       second_start + 9, full - 1}) {
    WriteFileBytes(bytes.substr(0, cut));
    auto read = ReadWal(path_);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->tail, WalTail::kTorn) << "cut at " << cut;
    EXPECT_EQ(read->valid_end, second_start) << "cut at " << cut;
    EXPECT_EQ(read->records.size(), 1u) << "cut at " << cut;
  }
}

TEST_F(WalTest, FlippedByteInLastRecordIsTorn) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 2)).ok());
  }
  auto clean = ReadWal(path_);
  ASSERT_TRUE(clean.ok());
  const uint64_t second_start = clean->records[1].offset;
  std::string bytes = ReadFileBytes();
  // Flip a payload byte of the LAST record: checksum fails, but nothing
  // follows it, so this is indistinguishable from a torn append.
  bytes[second_start + 10] ^= 0x40;
  WriteFileBytes(bytes);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kTorn);
  EXPECT_EQ(read->valid_end, second_start);
  EXPECT_EQ(read->records.size(), 1u);
}

TEST_F(WalTest, FlippedByteInMiddleRecordIsCorrupt) {
  std::vector<uint64_t> offsets;
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 3; ++i) {
      offsets.push_back((*writer)->offset());
      ASSERT_TRUE((*writer)->Append(MakeBatch("edge", i)).ok());
    }
  }
  std::string bytes = ReadFileBytes();
  // Flip a payload byte of record 2: record 3 after it is intact, so the
  // damage cannot be a torn append — it is mid-log corruption.
  bytes[offsets[1] + 10] ^= 0x40;
  WriteFileBytes(bytes);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kCorrupt);
  EXPECT_EQ(read->valid_end, offsets[1]);
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_NE(read->detail.find("checksum"), std::string::npos)
      << read->detail;
}

TEST_F(WalTest, FlippedCrcByteBehavesLikeFlippedPayload) {
  std::vector<uint64_t> offsets;
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 2; ++i) {
      offsets.push_back((*writer)->offset());
      ASSERT_TRUE((*writer)->Append(MakeBatch("edge", i)).ok());
    }
  }
  std::string bytes = ReadFileBytes();
  // Byte 4 of a record header is the first CRC byte. Record 1 (not last)
  // -> corrupt; the same damage on record 2 (last) -> torn.
  std::string first = bytes;
  first[offsets[0] + 4] ^= 0x01;
  WriteFileBytes(first);
  auto read1 = ReadWal(path_);
  ASSERT_TRUE(read1.ok());
  EXPECT_EQ(read1->tail, WalTail::kCorrupt);
  EXPECT_EQ(read1->valid_end, offsets[0]);

  std::string last = bytes;
  last[offsets[1] + 4] ^= 0x01;
  WriteFileBytes(last);
  auto read2 = ReadWal(path_);
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(read2->tail, WalTail::kTorn);
  EXPECT_EQ(read2->valid_end, offsets[1]);
}

TEST_F(WalTest, OversizeLengthIsCorruptNotTorn) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 2)).ok());
  }
  std::string bytes = ReadFileBytes();
  const uint64_t first_end = [&] {
    auto read = ReadWal(path_);
    return read->records[1].offset;
  }();
  // Plant an over-cap length field where record 1's header sits. Append
  // can never write such a record, so this is definitive damage even
  // though the declared payload also runs past end of file — the verdict
  // must be corrupt (strict recovery refuses), never a silently
  // truncatable torn tail.
  std::string damaged = bytes;
  damaged[static_cast<size_t>(first_end) + 3] =
      static_cast<char>(0x7F);  // length's high byte: ~2 GiB
  WriteFileBytes(damaged);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kCorrupt);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->valid_end, first_end);
  EXPECT_NE(read->detail.find("impossible payload length"),
            std::string::npos)
      << read->detail;
}

TEST_F(WalTest, TruncateWalRemovesTornTail) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
  }
  std::string bytes = ReadFileBytes();
  const uint64_t valid = bytes.size();
  // A plausible torn append: header declaring 96 payload bytes, only 4
  // on disk. ("Text" garbage would decode as an over-cap length and be
  // diagnosed as corruption instead.)
  WriteFileBytes(bytes + std::string("\x60\x00\x00\x00\xaa\xbb\xcc\xdd"
                                     "tail",
                                     12));
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kTorn);
  ASSERT_TRUE(TruncateWal(path_, read->valid_end).ok());
  auto again = ReadWal(path_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->tail, WalTail::kClean);
  EXPECT_EQ(again->file_size, valid);
  EXPECT_EQ(again->records.size(), 1u);
}

TEST_F(WalTest, ReopenAtOffsetDiscardsTailAndAppends) {
  uint64_t first_end = 0;
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    first_end = (*writer)->offset();
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 2)).ok());
  }
  // Reopen at the end of record 1, as recovery does after dropping a
  // tail: record 2's bytes are truncated away and the next append lands
  // exactly at the reopen offset.
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff, first_end);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->offset(), first_end);
    ASSERT_TRUE((*writer)->Append(MakeBatch("node", 9)).ok());
  }
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kClean);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].batch.relation, "edge");
  EXPECT_EQ(read->records[1].batch.relation, "node");
  EXPECT_EQ(read->records[1].offset, first_end);
}

TEST_F(WalTest, OpenRejectsOffsetOutsideFile) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
  }
  EXPECT_FALSE(WalWriter::Open(path_, FsyncPolicy::kOff, 4).ok());
  EXPECT_FALSE(WalWriter::Open(path_, FsyncPolicy::kOff, 1000).ok());
}

TEST_F(WalTest, DeleteRecordRoundTrip) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    TupleBatch del = MakeBatch("edge", 1);
    del.op = BatchOp::kDelete;
    ASSERT_TRUE((*writer)->Append(del).ok());
  }
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->tail, WalTail::kClean);
  ASSERT_EQ(read->records.size(), 2u);
  // The op is the record type byte; everything after it shares the
  // insert layout, so rows round-trip identically for both ops.
  EXPECT_EQ(read->records[0].batch.op, BatchOp::kInsert);
  EXPECT_EQ(read->records[1].batch.op, BatchOp::kDelete);
  EXPECT_EQ(read->records[1].batch.relation, "edge");
  EXPECT_EQ(read->records[1].batch.arity, 2u);
  EXPECT_EQ(read->records[1].batch.rows, read->records[0].batch.rows);
}

TEST_F(WalTest, UnknownRecordTypeIsCorruptNotTorn) {
  {
    auto writer = WalWriter::Open(path_, FsyncPolicy::kOff);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch("edge", 3)).ok());
  }
  // Flip the FIRST record's type byte (first payload byte, after the u32
  // length + u32 crc framing) to a value no writer emits. With a valid
  // record still behind it this is mid-log damage — corruption, never a
  // torn tail (only damage on the final record gets the torn-append
  // benefit of the doubt).
  std::string bytes = ReadFileBytes();
  bytes[kWalHeaderSize + 8] = static_cast<char>(0x7f);
  WriteFileBytes(bytes);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, WalTail::kCorrupt);
  EXPECT_TRUE(read->records.empty());
}

TEST_F(WalTest, ParseFsyncPolicyNames) {
  EXPECT_EQ(*ParseFsyncPolicy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(*ParseFsyncPolicy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(*ParseFsyncPolicy("off"), FsyncPolicy::kOff);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_EQ(FsyncPolicyToString(FsyncPolicy::kBatch), "batch");
}

}  // namespace
}  // namespace seprec
