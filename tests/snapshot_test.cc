// Tests for snapshot format v3 (storage/segment/snapshot_v3.h), the one
// format checkpoints write and recovery reads: what round-trips, what is
// never persisted, and how damaged or foreign files are refused.
#include "storage/segment/snapshot_v3.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

class SnapshotV3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    dir_ = StrCat(::testing::TempDir(), "/seprec_snapshot_",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(std::filesystem::create_directories(dir_));
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& file) const {
    return StrCat(dir_, "/", file);
  }

  // Saves `db` and loads the file into `restored`.
  void RoundTrip(const Database& db, Database* restored) {
    const std::string path = Path("db.v3");
    ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
    Status loaded = LoadSnapshotV3File(restored, path);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

// A v3 file around `footer`: magic, no pages, then the footer and a
// trailer whose offsets and CRC are correct, so only the footer's own
// fields can be wrong.
std::string V3FileAround(const std::string& footer) {
  std::string file(kSnapshotV3Magic, sizeof(kSnapshotV3Magic));
  const uint64_t footer_offset = file.size();
  file += footer;
  PutLe(&file, footer_offset, 8);
  PutLe(&file, footer.size(), 4);
  PutLe(&file, Crc32c(footer), 4);
  return file;
}

// A footer with no symbols and one relation "r" whose entry stops right
// after its page count.
std::string FooterDeclaring(uint32_t arity, uint32_t data_pages) {
  std::string footer;
  PutLe(&footer, 0, 8);  // symbol count
  PutLe(&footer, 1, 4);  // relation count
  PutLe(&footer, 1, 2);  // name length
  footer += "r";
  PutLe(&footer, arity, 4);
  PutLe(&footer, 1, 8);  // rows
  PutLe(&footer, sizeof(kSnapshotV3Magic), 8);  // data offset
  PutLe(&footer, data_pages, 4);
  return footer;
}

TEST_F(SnapshotV3Test, IntegerAndSymbolFortyTwoStayDistinct) {
  Database db;
  Relation* r = *db.CreateRelation("mixed", 3);
  r->Insert({db.symbols().Intern("tom"), Value::Int(42),
             db.symbols().Intern("42")});
  Database restored;
  RoundTrip(db, &restored);
  const Relation* mixed = restored.Find("mixed");
  ASSERT_NE(mixed, nullptr);
  ASSERT_EQ(mixed->size(), 1u);
  mixed->ForEachRow([&](Row row) {
    EXPECT_TRUE(row[1].is_int());
    EXPECT_EQ(row[1].as_int(), 42);
    ASSERT_TRUE(row[2].is_symbol());
    EXPECT_EQ(restored.symbols().NameOf(row[2].symbol_id()), "42");
  });
}

TEST_F(SnapshotV3Test, SymbolsWithTabNewlineAndBackslashRoundTrip) {
  Database db;
  const std::string tricky[] = {"with\ttab", "line\nbreak", "back\\slash",
                                "\\t"};
  Relation* r = *db.CreateRelation("s", 1);
  for (const std::string& symbol : tricky) {
    r->Insert({db.symbols().Intern(symbol)});
  }
  Database restored;
  RoundTrip(db, &restored);
  ASSERT_NE(restored.Find("s"), nullptr);
  EXPECT_EQ(restored.Find("s")->DebugString(restored.symbols()),
            r->DebugString(db.symbols()));
  for (const std::string& symbol : tricky) {
    const Value v = restored.symbols().Intern(symbol);
    EXPECT_TRUE(restored.Find("s")->Contains(Row(&v, 1))) << symbol;
  }
}

TEST_F(SnapshotV3Test, PopulatedZeroArityRelationRoundTrips) {
  Database db;
  (*db.CreateRelation("flag", 0))->Insert(Row{});
  Database restored;
  RoundTrip(db, &restored);
  ASSERT_NE(restored.Find("flag"), nullptr);
  EXPECT_EQ(restored.Find("flag")->arity(), 0u);
  EXPECT_EQ(restored.Find("flag")->size(), 1u);
}

TEST_F(SnapshotV3Test, EmptyRelationKeepsItsArity) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("empty", 2).ok());
  Database restored;
  RoundTrip(db, &restored);
  ASSERT_NE(restored.Find("empty"), nullptr);
  EXPECT_EQ(restored.Find("empty")->size(), 0u);
  EXPECT_EQ(restored.Find("empty")->arity(), 2u);
}

TEST_F(SnapshotV3Test, LongestRelationNameRoundTrips) {
  Database db;
  const std::string name(kMaxRelationNameBytes, 'r');
  ASSERT_TRUE(db.AddFact(name, {"a", "b"}).ok());
  Database restored;
  RoundTrip(db, &restored);
  ASSERT_EQ(restored.RelationNames(), std::vector<std::string>{name});
  EXPECT_EQ(restored.Find(name)->size(), 1u);
}

TEST_F(SnapshotV3Test, ScratchRelationsAreNotPersisted) {
  Database db;
  ASSERT_TRUE(db.AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("$delta_tc", {"a", "b"}).ok());
  ASSERT_TRUE(db.CreateRelation("$magic_empty", 1).ok());
  Database restored;
  RoundTrip(db, &restored);
  EXPECT_EQ(restored.RelationNames(), std::vector<std::string>{"edge"});
}

TEST_F(SnapshotV3Test, TwoRandomGraphsRoundTrip) {
  Database db;
  MakeRandomGraph(&db, "e1", "v", 50, 400, 1);
  MakeRandomGraph(&db, "e2", "w", 50, 400, 2);
  Database restored;
  RoundTrip(db, &restored);
  EXPECT_EQ(restored.TotalTuples(), db.TotalTuples());
  for (const char* name : {"e1", "e2"}) {
    EXPECT_EQ(restored.Find(name)->DebugString(restored.symbols()),
              db.Find(name)->DebugString(db.symbols()))
        << name;
  }
}

TEST_F(SnapshotV3Test, FailedRenameLeavesPreviousFileByteIdentical) {
  Database db;
  MakeChain(&db, "edge", "v", 3);
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  const std::string before = ReadBytes(path);

  // The replacement's bytes only ever reach `<path>.tmp`; a failure at
  // the rename must leave the previous snapshot untouched.
  Database bigger;
  MakeChain(&bigger, "edge", "v", 100);
  {
    ScopedFailpoint fp("snapshot.rename", {});
    EXPECT_FALSE(SaveSnapshotV3File(bigger, path).ok());
  }
  EXPECT_EQ(ReadBytes(path), before);
  Database restored;
  ASSERT_TRUE(LoadSnapshotV3File(&restored, path).ok());
  EXPECT_EQ(restored.Find("edge")->size(), 2u);
}

TEST_F(SnapshotV3Test, MissingFileIsNotFound) {
  Database db;
  Status status = LoadSnapshotV3File(&db, Path("absent.v3"));
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
}

TEST_F(SnapshotV3Test, EmptyFileIsRefused) {
  WriteBytes(Path("empty.v3"), "");
  Database db;
  Status status = LoadSnapshotV3File(&db, Path("empty.v3"));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_TRUE(db.RelationNames().empty());
}

TEST_F(SnapshotV3Test, TruncatedFileIsRefused) {
  Database db;
  MakeChain(&db, "edge", "v", 5);
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  const std::string bytes = ReadBytes(path);
  for (size_t keep : {size_t{4}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteBytes(path, bytes.substr(0, keep));
    Database restored;
    Status status = LoadSnapshotV3File(&restored, path);
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kInvalidArgument)
        << keep << ": " << status.ToString();
  }
}

// A v1/v2 text snapshot, like anything else without the v3 magic, is
// refused.
TEST_F(SnapshotV3Test, TextSnapshotIsNotAV3File) {
  const std::string path = Path("db.v2");
  WriteBytes(path,
             "seprec-snapshot v2\nrelation edge 2\ns:a\ts:b\n"
             "tuples 1 crc 00000000\nend\n");
  Database db;
  Status status = LoadSnapshotV3File(&db, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("is not a v3 segment file"),
            std::string::npos)
      << status.ToString();
  EXPECT_TRUE(db.RelationNames().empty());
}

TEST_F(SnapshotV3Test, FlippedFooterByteIsChecksumMismatch) {
  Database db;
  MakeChain(&db, "edge", "v", 5);
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  std::string bytes = ReadBytes(path);
  // The footer sits just before the 16-byte trailer; damage its last byte.
  bytes[bytes.size() - 17] ^= 0x01;
  WriteBytes(path, bytes);
  Database restored;
  Status status = LoadSnapshotV3File(&restored, path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
}

// Counts in a footer whose CRC is correct must still be bounded by the
// bytes that follow them before they size an allocation or a loop.
TEST_F(SnapshotV3Test, WildFooterCountsAreDataLossNotAllocations) {
  struct Case {
    const char* what;
    uint32_t arity;
    uint32_t data_pages;
  };
  for (const Case& c : {Case{"data_pages", 2, 0xFFFFFFFFu},
                        Case{"arity", 0xFFFFFFFFu, 0},
                        Case{"both", 0xFFFFFFFFu, 0xFFFFFFFFu}}) {
    const std::string path = Path("crafted.v3");
    const std::string file = V3FileAround(FooterDeclaring(c.arity,
                                                          c.data_pages));
    EXPECT_LT(file.size(), 64u);
    WriteBytes(path, file);
    Database db;
    Status status = LoadSnapshotV3File(&db, path);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << c.what << ": " << status.ToString();
    EXPECT_NE(status.message().find("footer is corrupt"), std::string::npos)
        << c.what << ": " << status.ToString();
  }

  // A symbol count the footer cannot hold is refused the same way.
  std::string footer;
  PutLe(&footer, uint64_t{1} << 40, 8);
  PutLe(&footer, 0, 4);
  WriteBytes(Path("symbols.v3"), V3FileAround(footer));
  Database db;
  Status status = LoadSnapshotV3File(&db, Path("symbols.v3"));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

}  // namespace
}  // namespace seprec
