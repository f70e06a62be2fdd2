// Tests for Value, SymbolTable, Relation, Index, and Database.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "storage/value.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// ---- Value ---------------------------------------------------------------

TEST(Value, SymbolRoundTrip) {
  Value v = Value::Symbol(12345);
  EXPECT_TRUE(v.is_symbol());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.symbol_id(), 12345u);
}

TEST(Value, IntRoundTrip) {
  for (int64_t x : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 40,
                    -(int64_t{1} << 40), Value::kMaxInt, Value::kMinInt}) {
    Value v = Value::Int(x);
    EXPECT_TRUE(v.is_int());
    EXPECT_EQ(v.as_int(), x) << x;
  }
}

TEST(Value, IntAndSymbolNeverEqual) {
  EXPECT_NE(Value::Int(0), Value::Symbol(0));
  EXPECT_NE(Value::Int(5), Value::Symbol(5));
}

TEST(Value, Ordering) {
  EXPECT_LT(Value::Symbol(1), Value::Symbol(2));
  EXPECT_LT(Value::Int(-5), Value::Int(3));
  // All symbols sort before all ints.
  EXPECT_LT(Value::Symbol(99), Value::Int(-100));
}

TEST(Value, HashDistinguishes) {
  ValueHash h;
  EXPECT_NE(h(Value::Int(1)), h(Value::Int(2)));
  EXPECT_NE(h(Value::Symbol(1)), h(Value::Int(1)));
}

// ---- SymbolTable ----------------------------------------------------------

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable table;
  Value a1 = table.Intern("alpha");
  Value a2 = table.Intern("alpha");
  Value b = table.Intern("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTable, NameOfRoundTrip) {
  SymbolTable table;
  Value v = table.Intern("hello");
  EXPECT_EQ(table.NameOf(v.symbol_id()), "hello");
  EXPECT_EQ(table.ToString(v), "hello");
  EXPECT_EQ(table.ToString(Value::Int(-7)), "-7");
}

TEST(SymbolTable, TryFind) {
  SymbolTable table;
  table.Intern("present");
  Value v;
  EXPECT_TRUE(table.TryFind("present", &v));
  EXPECT_FALSE(table.TryFind("absent", &v));
  EXPECT_EQ(table.size(), 1u);  // TryFind does not intern
}

TEST(SymbolTable, StableUnderGrowth) {
  // Regression guard for dangling string_view keys: intern thousands of
  // short (SSO) strings and verify old ids still resolve.
  SymbolTable table;
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(table.Intern(StrCat("s", i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.Intern(StrCat("s", i)), values[i]);
    EXPECT_EQ(table.NameOf(values[i].symbol_id()), StrCat("s", i));
  }
}

// ---- Relation --------------------------------------------------------------

Row MakeRow(const std::vector<Value>& v) { return Row(v.data(), v.size()); }

TEST(Relation, InsertDeduplicates) {
  Relation rel("r", 2);
  std::vector<Value> row = {Value::Int(1), Value::Int(2)};
  EXPECT_TRUE(rel.Insert(MakeRow(row)));
  EXPECT_FALSE(rel.Insert(MakeRow(row)));
  EXPECT_EQ(rel.size(), 1u);
  std::vector<Value> other = {Value::Int(2), Value::Int(1)};
  EXPECT_TRUE(rel.Insert(MakeRow(other)));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(Relation, ContainsAndRowAccess) {
  Relation rel("r", 2);
  std::vector<Value> row = {Value::Int(7), Value::Int(8)};
  EXPECT_FALSE(rel.Contains(MakeRow(row)));
  rel.Insert(MakeRow(row));
  EXPECT_TRUE(rel.Contains(MakeRow(row)));
  Row stored = rel.row(0);
  EXPECT_EQ(stored[0], Value::Int(7));
  EXPECT_EQ(stored[1], Value::Int(8));
}

TEST(Relation, IndexLookup) {
  Relation rel("edge", 2);
  for (int i = 0; i < 10; ++i) {
    rel.Insert({Value::Int(i / 3), Value::Int(i)});
  }
  const Index& index = rel.GetIndex({0});
  std::vector<Value> key = {Value::Int(1)};
  std::set<int64_t> found;
  index.ForEach(MakeRow(key), [&](uint32_t row_id) {
    found.insert(rel.row(row_id)[1].as_int());
  });
  EXPECT_EQ(found, (std::set<int64_t>{3, 4, 5}));
  EXPECT_EQ(index.CountMatches(MakeRow(key)), 3u);
}

TEST(Relation, IndexIsMaintainedIncrementally) {
  Relation rel("edge", 2);
  rel.Insert({Value::Int(0), Value::Int(1)});
  const Index& index = rel.GetIndex({0});
  std::vector<Value> key = {Value::Int(0)};
  EXPECT_EQ(index.CountMatches(MakeRow(key)), 1u);
  rel.Insert({Value::Int(0), Value::Int(2)});
  rel.Insert({Value::Int(1), Value::Int(3)});
  EXPECT_EQ(index.CountMatches(MakeRow(key)), 2u);
}

TEST(Relation, IndexOnSecondColumnAndBothColumns) {
  Relation rel("r", 2);
  rel.Insert({Value::Int(1), Value::Int(9)});
  rel.Insert({Value::Int(2), Value::Int(9)});
  std::vector<Value> key9 = {Value::Int(9)};
  EXPECT_EQ(rel.GetIndex({1}).CountMatches(MakeRow(key9)), 2u);
  std::vector<Value> key = {Value::Int(2), Value::Int(9)};
  EXPECT_EQ(rel.GetIndex({0, 1}).CountMatches(MakeRow(key)), 1u);
  std::vector<Value> miss = {Value::Int(2), Value::Int(8)};
  EXPECT_EQ(rel.GetIndex({0, 1}).CountMatches(MakeRow(miss)), 0u);
}

TEST(Relation, ClearDropsRowsAndIndexes) {
  Relation rel("r", 1);
  rel.Insert({Value::Int(1)});
  rel.GetIndex({0});
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert({Value::Int(1)}));
  std::vector<Value> key = {Value::Int(1)};
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(MakeRow(key)), 1u);
}

TEST(Relation, InsertAll) {
  Relation a("a", 1);
  Relation b("b", 1);
  a.Insert({Value::Int(1)});
  a.Insert({Value::Int(2)});
  b.Insert({Value::Int(2)});
  EXPECT_EQ(b.InsertAll(a), 1u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(Relation, ZeroArity) {
  Relation rel("prop", 0);
  EXPECT_TRUE(rel.Insert(Row{}));
  EXPECT_FALSE(rel.Insert(Row{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Row{}));
}

TEST(Relation, DebugStringIsSorted) {
  SymbolTable symbols;
  Relation rel("p", 1);
  rel.Insert({symbols.Intern("zeta")});
  rel.Insert({symbols.Intern("alpha")});
  EXPECT_EQ(rel.DebugString(symbols), "p(alpha)\np(zeta)\n");
}

TEST(Relation, LargeInsertStress) {
  Relation rel("big", 2);
  for (int i = 0; i < 20000; ++i) {
    rel.Insert({Value::Int(i % 997), Value::Int(i)});
  }
  EXPECT_EQ(rel.size(), 20000u);
  std::vector<Value> key = {Value::Int(0)};
  // i % 997 == 0 for i in {0, 997, ..., 19940}: 21 rows.
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(MakeRow(key)), 21u);
}

TEST(Relation, EraseRowsTombstones) {
  Relation rel("r", 2);
  for (int i = 0; i < 5; ++i) {
    rel.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  Relation dead("d", 2);
  dead.Insert({Value::Int(1), Value::Int(2)});
  dead.Insert({Value::Int(3), Value::Int(4)});
  dead.Insert({Value::Int(99), Value::Int(100)});  // absent: ignored
  EXPECT_EQ(rel.EraseRows(dead), 2u);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.slots(), 5u);
  EXPECT_FALSE(rel.Contains(std::vector<Value>{Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(rel.Contains(std::vector<Value>{Value::Int(0), Value::Int(1)}));
  // Iteration skips tombstones.
  size_t seen = 0;
  rel.ForEachRow([&seen](Row) { ++seen; });
  EXPECT_EQ(seen, 3u);
}

TEST(Relation, IndexSkipsTombstonedRows) {
  Relation rel("r", 2);
  rel.Insert({Value::Int(1), Value::Int(10)});
  rel.Insert({Value::Int(1), Value::Int(11)});
  const Index& index = rel.GetIndex({0});
  std::vector<Value> key = {Value::Int(1)};
  EXPECT_EQ(index.CountMatches(Row(key.data(), 1)), 2u);
  Relation dead("d", 2);
  dead.Insert({Value::Int(1), Value::Int(10)});
  EXPECT_EQ(rel.EraseRows(dead), 1u);
  EXPECT_EQ(index.CountMatches(Row(key.data(), 1)), 1u);
  // Indexes built AFTER erasure also exclude the tombstones.
  EXPECT_EQ(rel.GetIndex({1}).CountMatches(
                std::vector<Value>{Value::Int(10)}),
            0u);
}

TEST(Relation, ReinsertAfterErase) {
  Relation rel("r", 1);
  rel.Insert({Value::Int(7)});
  Relation dead("d", 1);
  dead.Insert({Value::Int(7)});
  EXPECT_EQ(rel.EraseRows(dead), 1u);
  EXPECT_TRUE(rel.Insert({Value::Int(7)}));  // comes back as a new slot
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.slots(), 2u);
  EXPECT_TRUE(rel.Contains(std::vector<Value>{Value::Int(7)}));
  // Erasing again works on the new slot.
  EXPECT_EQ(rel.EraseRows(dead), 1u);
  EXPECT_EQ(rel.size(), 0u);
}

TEST(Relation, EraseZeroArity) {
  Relation rel("flag", 0);
  rel.Insert(Row{});
  Relation dead("d", 0);
  dead.Insert(Row{});
  EXPECT_EQ(rel.EraseRows(dead), 1u);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(Row{}));
  EXPECT_EQ(rel.EraseRows(dead), 0u);
}

TEST(Relation, DebugStringSkipsTombstones) {
  SymbolTable symbols;
  Relation rel("p", 1);
  rel.Insert({symbols.Intern("keep")});
  rel.Insert({symbols.Intern("drop")});
  Relation dead("d", 1);
  dead.Insert({symbols.Intern("drop")});
  rel.EraseRows(dead);
  EXPECT_EQ(rel.DebugString(symbols), "p(keep)\n");
}

// ---- Database ----------------------------------------------------------------

TEST(Database, CreateAndFind) {
  Database db;
  StatusOr<Relation*> r = db.CreateRelation("edge", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(db.Find("edge"), *r);
  EXPECT_EQ(db.Find("missing"), nullptr);
  // Idempotent with matching arity.
  StatusOr<Relation*> again = db.CreateRelation("edge", 2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *r);
}

TEST(Database, ArityMismatchRejected) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("edge", 2).ok());
  StatusOr<Relation*> bad = db.CreateRelation("edge", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Database, RelationNameLongerThanTheLimitRejected) {
  Database db;
  const std::string longest(kMaxRelationNameBytes, 'r');
  ASSERT_TRUE(db.CreateRelation(longest, 1).ok());
  StatusOr<Relation*> bad =
      db.CreateRelation(std::string(kMaxRelationNameBytes + 1, 'r'), 1);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{longest});
}

TEST(Database, AddFactInterns) {
  Database db;
  ASSERT_TRUE(db.AddFact("likes", {"ann", "bob"}).ok());
  ASSERT_TRUE(db.AddFact("likes", {"bob", "cal"}).ok());
  const Relation* rel = db.Find("likes");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 2u);
  Value ann;
  EXPECT_TRUE(db.symbols().TryFind("ann", &ann));
}

TEST(Database, DropRemoves) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("tmp", 1).ok());
  db.Drop("tmp");
  EXPECT_EQ(db.Find("tmp"), nullptr);
  db.Drop("never_existed");  // no-op
}

TEST(Database, RelationNamesSortedAndTotals) {
  Database db;
  ASSERT_TRUE(db.AddFact("b", {"x"}).ok());
  ASSERT_TRUE(db.AddFact("a", {"x", "y"}).ok());
  ASSERT_TRUE(db.AddFact("a", {"y", "z"}).ok());
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

// ---- Concurrency and rollback primitives ---------------------------------

TEST(SymbolTable, ConcurrentInterningIsConsistent) {
  // Session threads intern overlapping symbol sets while readers resolve
  // names — the service layer's exact access pattern. Run under TSan (CI
  // thread-sanitize job) this exercises the table's reader/writer guard.
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kSymbols = 200;
  std::vector<std::vector<Value>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kSymbols);
      for (int i = 0; i < kSymbols; ++i) {
        // All threads intern the same names in different orders.
        int idx = (i * 7 + t * 13) % kSymbols;
        Value v = table.Intern(StrCat("sym", idx));
        seen[t].push_back(v);
        // Interleave reads: NameOf must already resolve.
        EXPECT_EQ(table.NameOf(v.symbol_id()), StrCat("sym", idx));
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread resolved each name to the same id.
  for (int i = 0; i < kSymbols; ++i) {
    int idx = (i * 7) % kSymbols;
    Value expect = table.Intern(StrCat("sym", idx));
    for (int t = 0; t < kThreads; ++t) {
      int their_idx = (i * 7 + t * 13) % kSymbols;
      EXPECT_EQ(seen[t][i], table.Intern(StrCat("sym", their_idx)));
    }
    (void)expect;
  }
}

TEST(ShardedSink, ClearReleasesAccountantCharge) {
  MemoryAccountant accountant;
  ShardedSink sink(2);
  sink.SetAccountant(&accountant);
  ASSERT_EQ(accountant.bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    Value row[2] = {Value::Int(i), Value::Int(i + 1)};
    ASSERT_TRUE(sink.Insert(Row(row, 2)));
  }
  EXPECT_EQ(sink.size(), 100u);
  const size_t charged = accountant.bytes();
  EXPECT_GT(charged, 0u);
  // Duplicate inserts are rejected and must not charge again.
  Value dup[2] = {Value::Int(0), Value::Int(1)};
  EXPECT_FALSE(sink.Insert(Row(dup, 2)));
  EXPECT_EQ(accountant.bytes(), charged);

  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(accountant.bytes(), 0u);

  // The sink stays usable after Clear, and re-staged rows re-charge.
  EXPECT_TRUE(sink.Insert(Row(dup, 2)));
  EXPECT_GT(accountant.bytes(), 0u);
  sink.Clear();
  EXPECT_EQ(accountant.bytes(), 0u);
}

TEST(Relation, TruncateToSlotsRebuildsIndexes) {
  SymbolTable symbols;
  Relation rel("r", 2);
  Value a = symbols.Intern("a");
  Value b = symbols.Intern("b");
  Value c = symbols.Intern("c");
  rel.Insert({a, b});
  rel.Insert({b, c});
  // Build an index before the truncation point moves.
  const Index& index = rel.GetIndex({0});
  EXPECT_EQ(index.CountMatches(Row(&a, 1)), 1u);
  const size_t checkpoint = rel.slots();

  rel.Insert({a, c});
  rel.Insert({c, c});
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(Row(&a, 1)), 2u);

  rel.TruncateToSlots(checkpoint);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.slots(), checkpoint);
  // Indexes were dropped with the truncated slots; the lazy rebuild must
  // not resurrect rows past the truncation point.
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(Row(&a, 1)), 1u);
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(Row(&c, 1)), 0u);
  EXPECT_FALSE(rel.Contains(Row(std::vector<Value>{a, c}.data(), 2)));

  // Reinserting a truncated row works and the index tracks it again.
  EXPECT_TRUE(rel.Insert({a, c}));
  EXPECT_EQ(rel.GetIndex({0}).CountMatches(Row(&a, 1)), 2u);
}

TEST(Relation, TruncateToSlotsDropsTombstoneState) {
  SymbolTable symbols;
  Relation rel("r", 1);
  Value a = symbols.Intern("a");
  Value b = symbols.Intern("b");
  rel.Insert({a});
  const size_t checkpoint = rel.slots();
  rel.Insert({b});
  // Tombstone `a`, then truncate past the erase: the checkpointed slot
  // stays tombstoned (truncation only removes slots, it does not revive
  // them) but the later insert goes away.
  Relation dead("dead", 1);
  dead.Insert({a});
  EXPECT_EQ(rel.EraseRows(dead), 1u);
  rel.TruncateToSlots(checkpoint);
  EXPECT_EQ(rel.slots(), checkpoint);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(Row(&b, 1)));
}

}  // namespace
}  // namespace seprec
