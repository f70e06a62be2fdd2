// Tests for the ordered, compressed, mmap-backed segment subsystem:
// varint coding, the page builder/decoder roundtrip, snapshot v3
// save/load (bit-identical rows and page corruption reporting), the
// relation delta layer over a base segment, ordered cursors, the
// accountant exemption for file-backed bytes, and the merge-join path
// producing bit-identical answers to the hash path.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/join_plan.h"
#include "plan/stats.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/segment/paged_file.h"
#include "storage/segment/segment.h"
#include "storage/segment/snapshot_v3.h"
#include "storage/segment/varint.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    dir_ = StrCat(::testing::TempDir(), "/seprec_segment_",
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

  // XORs one byte of `path` at `at`, simulating a flipped bit on disk.
  static void DamageFile(const std::string& path, uint64_t at,
                         uint8_t xor_mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.read(&byte, 1);
    ASSERT_TRUE(f.good());
    byte = static_cast<char>(byte ^ xor_mask);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }

  std::string dir_;
};

// Rows compared the way segments store them: raw bits, lexicographic.
bool BitsLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return a[i].bits() < b[i].bits();
  }
  return a.size() < b.size();
}

std::vector<std::vector<Value>> SortedByBits(
    std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end(), BitsLess);
  return rows;
}

// Collects every live row of `rel` in ForEachRowOrdered order.
std::vector<std::vector<Value>> OrderedRows(const Relation& rel) {
  std::vector<std::vector<Value>> out;
  rel.ForEachRowOrdered(
      [&](Row row) { out.emplace_back(row.begin(), row.end()); });
  return out;
}

TEST_F(SegmentTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            uint64_t{1} << 32,
                            uint64_t{1} << 56,
                            ~uint64_t{0}};
  for (uint64_t v : cases) {
    uint8_t buf[kMaxVarintBytes];
    uint8_t* end = EncodeVarint(buf, v);
    EXPECT_EQ(static_cast<size_t>(end - buf), VarintSize(v)) << v;
    uint64_t decoded = 0;
    const uint8_t* next = DecodeVarint(buf, end, &decoded);
    ASSERT_NE(next, nullptr) << v;
    EXPECT_EQ(next, end) << v;
    EXPECT_EQ(decoded, v);
  }
}

TEST_F(SegmentTest, VarintTruncationRejected) {
  uint8_t buf[kMaxVarintBytes];
  uint8_t* end = EncodeVarint(buf, ~uint64_t{0});
  uint64_t decoded = 0;
  // Every proper prefix of a multi-byte encoding must be rejected.
  for (const uint8_t* cut = buf; cut < end; ++cut) {
    EXPECT_EQ(DecodeVarint(buf, cut, &decoded), nullptr);
  }
}

TEST_F(SegmentTest, BuilderSegmentRoundTrip) {
  // Enough rows to span several pages, with duplicate leading columns so
  // the aggregated segment has real counts to report.
  constexpr int kKeys = 1200;
  constexpr int kPerKey = 4;
  std::vector<std::vector<Value>> rows;
  for (int k = 0; k < kKeys; ++k) {
    for (int j = 0; j < kPerKey; ++j) {
      rows.push_back({Value::Int(k), Value::Int(j * 10000 + k)});
    }
  }
  rows = SortedByBits(std::move(rows));

  std::string pages;
  SegmentBuilder builder("t", 2, [&](const uint8_t* page) {
    pages.append(reinterpret_cast<const char*>(page), kSegmentPageSize);
    return Status::OK();
  });
  for (const auto& row : rows) {
    ASSERT_TRUE(builder.Add(row.data()).ok());
  }
  StatusOr<SegmentGeometry> geom = builder.Finish();
  ASSERT_TRUE(geom.ok()) << geom.status().ToString();
  EXPECT_EQ(geom->rows, rows.size());
  EXPECT_GT(geom->data_pages, 1u);
  EXPECT_EQ(geom->agg_entries, static_cast<uint64_t>(kKeys));
  ASSERT_EQ(geom->distinct.size(), 2u);
  EXPECT_EQ(geom->distinct[0], static_cast<uint64_t>(kKeys));
  EXPECT_EQ(geom->distinct[1], rows.size());

  const std::string path = Path("t.seg");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(pages.data(), static_cast<std::streamoff>(pages.size()));
    ASSERT_TRUE(out.good());
  }
  StatusOr<std::shared_ptr<PagedFileReader>> file =
      PagedFileReader::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  // Builder offsets count from its own first page == file offset 0 here.
  RelationSegment seg(*file, *geom);
  ASSERT_TRUE(seg.VerifyPages().ok());
  ASSERT_EQ(seg.rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* got = seg.row(i);
    for (size_t c = 0; c < 2; ++c) {
      ASSERT_EQ(got[c].bits(), rows[i][c].bits()) << "row " << i;
    }
  }
  // Exact-match and lower-bound lookups for every row.
  for (size_t i = 0; i < rows.size(); i += 7) {
    EXPECT_EQ(seg.Find(rows[i].data(), 2), i);
    EXPECT_EQ(seg.LowerBound(rows[i].data(), 2), i);
  }
  std::vector<Value> absent = {Value::Int(kKeys + 5), Value::Int(0)};
  EXPECT_EQ(seg.Find(absent.data(), 2), seg.rows());
  // Aggregated counts answer per-key cardinalities without a scan.
  for (int k = 0; k < kKeys; k += 13) {
    StatusOr<uint64_t> n = seg.PrefixCount(Value::Int(k));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, static_cast<uint64_t>(kPerKey)) << "key " << k;
  }
  StatusOr<uint64_t> none = seg.PrefixCount(Value::Int(kKeys + 5));
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

TEST_F(SegmentTest, SnapshotV3RoundTripBitIdentical) {
  Database db;
  ASSERT_TRUE(db.AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("edge", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFact("edge", {"c", "a"}).ok());
  Relation* cost = *db.CreateRelation("cost", 2);
  for (int i = 0; i < 500; ++i) {
    cost->Insert({Value::Int(i), Value::Int(i * i)});
  }
  ASSERT_TRUE(db.CreateRelation("empty", 3).ok());

  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());

  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  ASSERT_EQ(loaded.RelationNames(), db.RelationNames());
  for (const std::string& name : db.RelationNames()) {
    const Relation* orig = db.Find(name);
    const Relation* got = loaded.Find(name);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->DebugString(loaded.symbols()),
              orig->DebugString(db.symbols()))
        << name;
    if (orig->size() > 0) {
      // Non-empty relations come back mmap-backed, not on the heap.
      ASSERT_NE(got->base_segment(), nullptr) << name;
      EXPECT_EQ(got->base_slots(), orig->size());
      EXPECT_EQ(got->delta_rows(), 0u);
      EXPECT_TRUE(got->base_segment()->mmapped());
    }
  }
}

TEST_F(SegmentTest, FlippedByteReportedAsCorruptPage) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 2);
  for (int i = 0; i < 2000; ++i) {
    rel->Insert({Value::Int(i), Value::Int(i + 1)});
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());

  // Pages start right after the 8-byte magic; hit the middle of the
  // first data page's payload.
  DamageFile(path, 8 + 1000, 0x40);
  Database loaded;
  Status st = LoadSnapshotV3File(&loaded, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  // The report must name the damaged page, not just "bad file".
  EXPECT_NE(st.message().find("page 0"), std::string::npos)
      << st.ToString();
}

TEST_F(SegmentTest, MmapBaseNotChargedToAccountant) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 2);
  for (int i = 0; i < 5000; ++i) {
    rel->Insert({Value::Int(i), Value::Int(i * 3)});
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());

  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  // The governor's byte budget (ExecutionLimits::max_bytes) reads this
  // accountant. Base rows are file-backed page cache, not query heap, so
  // a database far larger than max_bytes must load with zero charge...
  EXPECT_EQ(loaded.accountant().bytes(), 0u);

  // ...while resident delta rows are charged exactly like heap rows.
  Relation* t = loaded.Find("t");
  ASSERT_TRUE(t->Insert({Value::Int(9001), Value::Int(1)}));
  const size_t row_bytes =
      2 * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  EXPECT_EQ(loaded.accountant().bytes(), row_bytes);
  ASSERT_TRUE(t->Insert({Value::Int(9002), Value::Int(1)}));
  EXPECT_EQ(loaded.accountant().bytes(), 2 * row_bytes);
  // Duplicates of base rows are dedup-rejected: no charge.
  ASSERT_FALSE(t->Insert({Value::Int(0), Value::Int(0)}));
  EXPECT_EQ(loaded.accountant().bytes(), 2 * row_bytes);
}

TEST_F(SegmentTest, DeltaLayerInsertEraseReinsert) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 2);
  for (int i = 0; i < 100; ++i) {
    rel->Insert({Value::Int(i), Value::Int(i)});
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  Relation* t = loaded.Find("t");
  ASSERT_EQ(t->base_slots(), 100u);

  // Dedup sees through to the base: re-inserting a base row is a no-op.
  EXPECT_FALSE(t->Insert({Value::Int(42), Value::Int(42)}));
  EXPECT_EQ(t->size(), 100u);
  EXPECT_EQ(t->delta_rows(), 0u);

  // New rows land in the delta layer above the base slots.
  EXPECT_TRUE(t->Insert({Value::Int(200), Value::Int(200)}));
  EXPECT_EQ(t->size(), 101u);
  EXPECT_EQ(t->delta_rows(), 1u);

  // Erasing a base row tombstones its (immutable) slot.
  Relation dead("dead", 2);
  dead.Insert({Value::Int(42), Value::Int(42)});
  EXPECT_EQ(t->EraseRows(dead), 1u);
  EXPECT_EQ(t->base_dead(), 1u);
  EXPECT_EQ(t->size(), 100u);
  EXPECT_FALSE(t->Contains(dead.row(0)));

  // A tombstoned base row can come back as a delta row.
  EXPECT_TRUE(t->Insert({Value::Int(42), Value::Int(42)}));
  EXPECT_TRUE(t->Contains(dead.row(0)));
  EXPECT_EQ(t->size(), 101u);
  EXPECT_EQ(t->delta_rows(), 2u);
}

TEST_F(SegmentTest, TruncateRestoresDeltaAppendPoint) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 1);
  for (int i = 0; i < 10; ++i) rel->Insert({Value::Int(i)});
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  Relation* t = loaded.Find("t");

  const size_t mark = t->slots();
  ASSERT_TRUE(t->Insert({Value::Int(100)}));
  ASSERT_TRUE(t->Insert({Value::Int(101)}));
  ASSERT_EQ(t->slots(), mark + 2);
  // Rollback of an evaluator's appends: truncation may cut the delta
  // back to any point at or above the immutable base.
  t->TruncateToSlots(mark);
  EXPECT_EQ(t->size(), 10u);
  EXPECT_EQ(t->delta_rows(), 0u);
  const Value gone = Value::Int(100);
  const Value kept = Value::Int(3);
  EXPECT_FALSE(t->Contains(Row(&gone, 1)));
  EXPECT_TRUE(t->Contains(Row(&kept, 1)));
}

TEST_F(SegmentTest, OrderedCursorMergesBaseAndDelta) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 2);
  std::vector<std::vector<Value>> expect;
  for (int i = 0; i < 300; i += 2) {  // even keys into the base
    rel->Insert({Value::Int(i), Value::Int(i)});
    expect.push_back({Value::Int(i), Value::Int(i)});
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  Relation* t = loaded.Find("t");

  for (int i = 1; i < 300; i += 2) {  // odd keys into the delta
    ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i)}));
    expect.push_back({Value::Int(i), Value::Int(i)});
  }
  // Tombstone one base row and one delta row; neither may surface.
  Relation dead("dead", 2);
  dead.Insert({Value::Int(10), Value::Int(10)});
  dead.Insert({Value::Int(11), Value::Int(11)});
  ASSERT_EQ(t->EraseRows(dead), 2u);
  expect.erase(std::remove_if(expect.begin(), expect.end(),
                              [](const std::vector<Value>& r) {
                                return r[0].bits() == Value::Int(10).bits() ||
                                       r[0].bits() == Value::Int(11).bits();
                              }),
               expect.end());
  expect = SortedByBits(std::move(expect));

  // ForEachRowOrdered (and the cursor underneath) yields the live union
  // of base and delta in canonical raw-bits order.
  std::vector<std::vector<Value>> got = OrderedRows(*t);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i][0].bits(), expect[i][0].bits()) << "row " << i;
    EXPECT_EQ(got[i][1].bits(), expect[i][1].bits()) << "row " << i;
  }

  // SeekGE lands on an exact row regardless of which side holds it.
  for (int key : {4, 7}) {  // 4 in the base, 7 in the delta
    OrderedCursor cur(t);
    std::vector<Value> probe = {Value::Int(key), Value::Int(key)};
    cur.SeekGE(Row(probe.data(), probe.size()));
    ASSERT_FALSE(cur.AtEnd()) << key;
    EXPECT_EQ(cur.Current()[0].bits(), probe[0].bits());
    EXPECT_EQ(cur.Current()[1].bits(), probe[1].bits());
  }
}

// Compiles the single rule in `rule_text` against `db` and returns the
// sorted output plus the planner's join-algorithm verdict.
std::string RunRuleWithAlgo(const std::string& rule_text, Database* db,
                            bool allow_merge, std::string* algo) {
  Program p = ParseProgramOrDie(rule_text);
  PlanOptions options;
  options.allow_merge = allow_merge;
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], db, options);
  SEPREC_CHECK(plan.ok());
  *algo = plan->plan_info().algo;
  Relation out("out", p.rules[0].head.arity());
  plan->ExecuteInto(&out);
  return out.DebugString(db->symbols());
}

TEST_F(SegmentTest, MergeJoinMatchesHashJoinBitIdentically) {
  Database db;
  // Duplicate join keys on both sides so the merge operator's group
  // buffering is exercised, plus unmatched keys on each side.
  for (int k = 0; k < 40; ++k) {
    Relation* r = *db.CreateRelation("r", 2);
    Relation* s = *db.CreateRelation("s", 2);
    r->Insert({Value::Int(k), Value::Int(1000 + k)});
    if (k % 2 == 0) r->Insert({Value::Int(k), Value::Int(2000 + k)});
    if (k % 3 != 0) {
      s->Insert({Value::Int(k), Value::Int(3000 + k)});
      s->Insert({Value::Int(k), Value::Int(4000 + k)});
    }
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());

  const std::string rule = "h(Y, Z) :- r(X, Y), s(X, Z).";
  std::string merge_algo;
  std::string hash_algo;
  const std::string merged =
      RunRuleWithAlgo(rule, &loaded, /*allow_merge=*/true, &merge_algo);
  const std::string hashed =
      RunRuleWithAlgo(rule, &loaded, /*allow_merge=*/false, &hash_algo);
  // Both segment-backed inputs share the leading variable: the planner
  // must pick the merge join, and with allow_merge off it must fall back
  // to hash with bit-identical answers.
  EXPECT_EQ(merge_algo, "merge");
  EXPECT_EQ(hash_algo, "hash");
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(merged, hashed);

  // Heap-only relations (no segments attached) never merge-join.
  std::string heap_algo;
  const std::string heap =
      RunRuleWithAlgo(rule, &db, /*allow_merge=*/true, &heap_algo);
  EXPECT_EQ(heap_algo, "hash");
  EXPECT_EQ(heap, merged);
}

TEST_F(SegmentTest, StatsExactForSegmentBackedRelations) {
  Database db;
  Relation* rel = *db.CreateRelation("t", 2);
  for (int i = 0; i < 200; ++i) {
    rel->Insert({Value::Int(i / 4), Value::Int(i)});
  }
  const std::string path = Path("db.v3");
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshotV3File(&loaded, path).ok());
  Relation* t = loaded.Find("t");

  // Pristine segment-backed relation: counts come off the aggregated
  // segment, no scan, and the relation advertises its ordering.
  RelationStats stats = loaded.stats().Get(*t);
  EXPECT_EQ(stats.source, RelationStats::Source::kExact);
  EXPECT_TRUE(stats.ordered);
  EXPECT_EQ(stats.rows, 200u);
  ASSERT_EQ(stats.distinct.size(), 2u);
  EXPECT_EQ(stats.distinct[0], 50u);
  EXPECT_EQ(stats.distinct[1], 200u);

  // A delta row invalidates the exact shortcut; the catalog falls back
  // to scanning but the relation stays ordered (cursor merges the
  // delta), so merge joins remain available between compactions.
  ASSERT_TRUE(t->Insert({Value::Int(1000), Value::Int(1000)}));
  stats = loaded.stats().Get(*t);
  EXPECT_EQ(stats.source, RelationStats::Source::kSampled);
  EXPECT_TRUE(stats.ordered);
  EXPECT_EQ(stats.rows, 201u);

  // Heap relations never report exact.
  RelationStats heap = db.stats().Get(*db.Find("t"));
  EXPECT_EQ(heap.source, RelationStats::Source::kSampled);
  EXPECT_FALSE(heap.ordered);
}

}  // namespace
}  // namespace seprec
