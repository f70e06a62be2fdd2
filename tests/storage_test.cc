// Tests for Value, SymbolTable, RowIdSet, Relation, Index, Database and
// Answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/answer.h"
#include "plan/stats.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/row_id_set.h"
#include "storage/segment/snapshot_v3.h"
#include "storage/symbol_table.h"
#include "storage/value.h"
#include "util/rng.h"
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

// ---- Database overlays ------------------------------------------------------

TEST(DatabaseOverlay, FindFallsThroughToTheBase) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  Database overlay(&base);
  EXPECT_EQ(overlay.Find("edge"), base.Find("edge"));
  EXPECT_EQ(overlay.Find("missing"), nullptr);
  EXPECT_TRUE(overlay.RelationNames().empty());
  // Everything but the relations and the accountant is the base's.
  EXPECT_EQ(&overlay.symbols(), &base.symbols());
  EXPECT_EQ(&overlay.stats(), &base.stats());
  EXPECT_EQ(&overlay.counters(), &base.counters());
  // An overlay never drops a relation of its base.
  overlay.Drop("edge");
  EXPECT_NE(base.Find("edge"), nullptr);
}

TEST(DatabaseOverlay, CreatesLocallyAndShadowsTheBaseWithAnEmptyRelation) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  Relation* edge = base.Find("edge");
  Database overlay(&base);
  Relation* tc = *overlay.CreateRelation("tc", 2);
  EXPECT_EQ(overlay.Find("tc"), tc);
  EXPECT_EQ(base.Find("tc"), nullptr);

  Relation* shadow = *overlay.CreateRelation("edge", 2);
  EXPECT_NE(shadow, edge);
  EXPECT_EQ(overlay.Find("edge"), shadow);
  EXPECT_TRUE(shadow->empty());
  ASSERT_TRUE(shadow->Insert({base.symbols().Intern("c"),
                              base.symbols().Intern("d")}));
  EXPECT_EQ(edge->DebugString(base.symbols()), "edge(a, b)\n");
  EXPECT_EQ(overlay.CreateRelation("edge", 3).status().code(),
            StatusCode::kInvalidArgument);

  // A body relation no layer holds goes to the base, where loads land,
  // unless it is '$' scratch.
  Relation* p = *overlay.FindOrCreate("p", 1);
  EXPECT_EQ(base.Find("p"), p);
  Relation* scratch = *overlay.FindOrCreate("$seed", 1);
  EXPECT_EQ(base.Find("$seed"), nullptr);
  EXPECT_EQ(overlay.Find("$seed"), scratch);
  EXPECT_EQ(*overlay.FindOrCreate("tc", 2), tc);
  EXPECT_EQ(overlay.FindOrCreate("p", 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(overlay.RelationNames(),
            (std::vector<std::string>{"$seed", "edge", "tc"}));
}

TEST(DatabaseOverlay, AccountantCountsTheLayerAndPassesChargesOn) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  const size_t row_bytes =
      2 * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  const size_t stored = base.accountant().bytes();
  Database one(&base);
  Database two(&base);
  const Value v = base.symbols().Intern("v");
  ASSERT_TRUE((*one.CreateRelation("tc", 2))->Insert({v, v}));
  ASSERT_TRUE((*two.CreateRelation("tc", 2))->Insert({v, v}));
  // A shadow of a stored relation starts empty: nothing to charge.
  ASSERT_TRUE(two.CreateRelation("edge", 2).ok());
  EXPECT_EQ(one.accountant().bytes(), row_bytes);
  EXPECT_EQ(two.accountant().bytes(), row_bytes);
  EXPECT_EQ(base.accountant().bytes(), stored + 2 * row_bytes);

  // Releasing one layer's rows moves the base's total, never another
  // layer's: a governor reading `two` sees only its own evaluation.
  one.Clear();
  EXPECT_EQ(one.accountant().bytes(), 0u);
  EXPECT_EQ(two.accountant().bytes(), row_bytes);
  EXPECT_EQ(base.accountant().bytes(), stored + row_bytes);
  two.Discard();
  EXPECT_EQ(two.accountant().bytes(), 0u);
  EXPECT_EQ(base.accountant().bytes(), stored);
}

TEST(DatabaseOverlay, ClearEmptiesTheOverlayAndKeepsItsRelations) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  const size_t stored = base.accountant().bytes();
  Database overlay(&base);
  Relation* tc = *overlay.CreateRelation("tc", 2);
  Relation* shadow = *overlay.CreateRelation("edge", 2);
  const Value a = base.symbols().Intern("a");
  const Value z = base.symbols().Intern("z");
  ASSERT_TRUE(tc->Insert({a, z}));
  ASSERT_TRUE(shadow->Insert({a, z}));
  ASSERT_TRUE(base.AddFact("edge", {"b", "c"}).ok());

  // The relations stay (compiled plans bind them), empty, and nothing of
  // the overlay stays charged.
  overlay.Clear();
  EXPECT_EQ(overlay.Find("tc"), tc);
  EXPECT_TRUE(tc->empty());
  EXPECT_EQ(overlay.Find("edge"), shadow);
  EXPECT_TRUE(shadow->empty());
  EXPECT_EQ(overlay.accountant().bytes(), 0u);
  EXPECT_EQ(base.accountant().bytes(),
            stored + 2 * sizeof(Value) + MemoryAccountant::kRowOverheadBytes);
}

TEST(DatabaseOverlay, StoredRowsNameResolvesInTheRootOnly) {
  Database root;
  ASSERT_TRUE(root.AddFact("tc", {"a", "b"}).ok());
  Relation* stored = root.Find("tc");
  Database outer(&root);
  Database inner(&outer);
  Relation* shadow = *inner.CreateRelation("tc", 2);
  ASSERT_TRUE(outer.CreateRelation("hop", 2).ok());
  const std::string tc_rows = Database::StoredRowsName("tc");
  EXPECT_EQ(tc_rows, "tc'");

  // Every layer resolves tc' to the root's tc, never to a shadow, and
  // never to a relation of an overlay.
  EXPECT_EQ(inner.Find("tc"), shadow);
  EXPECT_EQ(inner.Find(tc_rows), stored);
  EXPECT_EQ(outer.Find(tc_rows), stored);
  EXPECT_EQ(root.Find(tc_rows), stored);
  EXPECT_EQ(*inner.FindOrCreate(tc_rows, 2), stored);
  EXPECT_EQ(inner.FindOrCreate(tc_rows, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(inner.Find(Database::StoredRowsName("hop")), nullptr);

  // Nothing creates a relation under the reserved name: not a load into
  // the root, not an engine in an overlay, not FindOrCreate.
  for (Database* layer : {&root, &outer, &inner}) {
    EXPECT_EQ(layer->CreateRelation(tc_rows, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(layer->FindOrCreate(Database::StoredRowsName("hop"), 2)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(root.AddFact(tc_rows, {"c", "d"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Database::CheckRelationName(tc_rows).code(),
            StatusCode::kInvalidArgument);
  // '$' names are scratch, whatever they end with.
  EXPECT_TRUE(Database::CheckRelationName("$inc_tc'").ok());
  EXPECT_EQ(root.RelationNames(), std::vector<std::string>{"tc"});
  EXPECT_EQ(outer.RelationNames(), std::vector<std::string>{"hop"});
  EXPECT_EQ(inner.RelationNames(), std::vector<std::string>{"tc"});
}

TEST(DatabaseOverlay, DestroyingLeavesTheBaseUnchanged) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  Relation* edge = base.Find("edge");
  base.stats().Get(*edge);
  const size_t bytes = base.accountant().bytes();
  const uint64_t generation = base.generation();
  const size_t entries = base.stats().entries();
  const uint64_t recomputations = base.stats().recomputations();
  {
    Database overlay(&base);
    const Value v = base.symbols().Intern("v");
    Relation* tc = *overlay.CreateRelation("tc", 2);
    ASSERT_TRUE(tc->Insert({v, v}));
    Relation* shadow = *overlay.CreateRelation("edge", 2);
    ASSERT_TRUE(shadow->Insert({v, v}));
    Relation* scratch = *overlay.CreateRelation("$scratch", 1);
    ASSERT_TRUE(scratch->Insert({v}));
    overlay.stats().Get(*tc);
    overlay.stats().Get(*shadow);
    overlay.stats().Get(*scratch);
    EXPECT_GT(base.accountant().bytes(), bytes);
    overlay.Drop("$scratch");
  }
  EXPECT_EQ(base.RelationNames(), std::vector<std::string>{"edge"});
  EXPECT_EQ(edge->DebugString(base.symbols()), "edge(a, b)\n");
  EXPECT_EQ(base.accountant().bytes(), bytes);
  EXPECT_EQ(base.generation(), generation);
  EXPECT_EQ(base.stats().entries(), entries);
  base.stats().Get(*edge);
  EXPECT_EQ(base.stats().recomputations(), recomputations + 3);
}

TEST(DatabaseOverlay, CommitMovesNewRelationsAndMergesStoredOnes) {
  Database base;
  ASSERT_TRUE(base.AddFact("edge", {"a", "b"}).ok());
  Database overlay(&base);
  const Value a = base.symbols().Intern("a");
  const Value c = base.symbols().Intern("c");
  Relation* tc = *overlay.CreateRelation("tc", 2);
  ASSERT_TRUE(tc->Insert({a, c}));
  ASSERT_TRUE((*overlay.CreateRelation("edge", 2))->Insert({a, c}));
  const size_t bytes = base.accountant().bytes();

  overlay.Commit();
  EXPECT_TRUE(overlay.RelationNames().empty());
  EXPECT_EQ(base.Find("tc"), tc);
  EXPECT_EQ(base.Find("edge")->DebugString(base.symbols()),
            "edge(a, b)\nedge(a, c)\n");
  // The merged relation's row is released and the stored relation is
  // charged for the row it gained; the moved relation keeps its own.
  EXPECT_EQ(base.accountant().bytes(), bytes);
  EXPECT_EQ(overlay.accountant().bytes(), 0u);
}

// ---- Concurrency primitives -----------------------------------------------

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

// ---- StagingSink ----------------------------------------------------------

TEST(StagingSink, DedupesStagedRows) {
  StagingSink sink(2);
  std::vector<Value> a{Value::Int(1), Value::Int(2)};
  std::vector<Value> b{Value::Int(3), Value::Int(4)};
  EXPECT_TRUE(sink.Insert(MakeRow(a)));
  EXPECT_FALSE(sink.Insert(MakeRow(a)));
  EXPECT_TRUE(sink.Insert(MakeRow(b)));
  EXPECT_EQ(sink.size(), 2u);
}

TEST(StagingSink, MergeIsCanonicalWhateverTheStagingOrder) {
  // However the rules of a round happen to derive a row set, MergeInto
  // hands the target the same rows in the same slot order: sorted by
  // Value bits.
  auto merged = [](bool reversed) {
    StagingSink sink(2);
    for (size_t k = 0; k < 1200; ++k) {
      const size_t j = reversed ? 1199 - k : k;
      // Each row is staged twice (j and its neighbour derive it).
      for (size_t d = 0; d < 2; ++d) {
        const size_t v = j + d;
        std::vector<Value> row{Value::Int(static_cast<int64_t>(v % 97)),
                               Value::Int(static_cast<int64_t>(v % 53))};
        sink.Insert(MakeRow(row));
      }
    }
    Relation out("out", 2);
    sink.MergeInto(&out);
    std::vector<std::vector<Value>> rows;
    out.ForEachRow([&rows](Row r) { rows.emplace_back(r.begin(), r.end()); });
    return rows;
  };
  const std::vector<std::vector<Value>> forward = merged(false);
  ASSERT_FALSE(forward.empty());
  auto bits = [](const std::vector<Value>& row) {
    return std::make_pair(row[0].bits(), row[1].bits());
  };
  for (size_t i = 1; i < forward.size(); ++i) {
    EXPECT_LT(bits(forward[i - 1]), bits(forward[i])) << "slot " << i;
  }
  EXPECT_EQ(merged(true), forward);
}

TEST(StagingSink, MergeIntoReportsOnlyRowsNewInTarget) {
  Relation out("out", 1);
  Relation delta("delta", 1);
  std::vector<Value> a{Value::Int(1)};
  std::vector<Value> b{Value::Int(2)};
  out.Insert(MakeRow(a));  // pre-existing

  StagingSink sink(1);
  sink.Insert(MakeRow(a));
  sink.Insert(MakeRow(b));
  size_t staged = 0;
  EXPECT_EQ(sink.MergeInto(&out, &delta, &staged), 1u);
  EXPECT_EQ(staged, 2u);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(delta.size(), 1u);  // only the genuinely new row
  EXPECT_EQ(sink.size(), 0u);   // drained
}

TEST(StagingSink, AccountsStagedBytesAndReleasesOnMerge) {
  MemoryAccountant accountant;
  StagingSink sink(2);
  sink.SetAccountant(&accountant);
  std::vector<Value> a{Value::Int(1), Value::Int(2)};
  sink.Insert(MakeRow(a));
  sink.Insert(MakeRow(a));  // duplicate: must not double-charge
  const size_t staged = accountant.bytes();
  EXPECT_GT(staged, 0u);

  Relation out("out", 2);
  out.SetAccountant(&accountant);
  sink.MergeInto(&out);
  // Staging charge released; the relation now carries the row.
  EXPECT_EQ(accountant.bytes(), staged);
  out.SetAccountant(nullptr);
  EXPECT_EQ(accountant.bytes(), 0u);
}

TEST(StagingSink, ClearReleasesAccountantCharge) {
  MemoryAccountant accountant;
  StagingSink sink(2);
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

TEST(StagingSink, HandlesZeroArity) {
  StagingSink sink(0);
  EXPECT_TRUE(sink.Insert(Row()));
  EXPECT_FALSE(sink.Insert(Row()));
  Relation out("out", 0);
  EXPECT_EQ(sink.MergeInto(&out), 1u);
  EXPECT_EQ(out.size(), 1u);
}

// ---- RowIdSet --------------------------------------------------------------

// Drives a RowIdSet and a std::set with the same random insert/find/erase
// stream. Each column draws from `per_column` values (at most 64 distinct
// rows live at once), so the table stays at 16-128 slots. The values are
// redrawn every 5,000 operations, after emptying both sets, because a
// fixed key set fixes every row's home slot: over many key sets some probe
// runs wrap past the table's end, including runs that an erase shifts back
// across it. Ids are never reused: the owner's buffer only grows, as
// Relation's slots do.
void RowIdSetMatchesStdSet(size_t arity, uint64_t per_column, uint64_t seed) {
  std::vector<Value> buffer;
  auto row_of = [&buffer, arity](uint32_t id) {
    return Row(buffer.data() + size_t{id} * arity, arity);
  };
  uint32_t next_id = 0;
  RowIdSet set;
  std::set<std::vector<uint64_t>> model;
  Rng rng(seed);
  std::vector<int64_t> domain(per_column);
  std::vector<Value> probe(arity);
  for (int op = 0; op < 100000; ++op) {
    if (op % 5000 == 0) {
      set.clear();
      model.clear();
      for (int64_t& v : domain) v = rng.Between(-1000000, 1000000);
    }
    std::vector<uint64_t> key(arity);
    for (size_t c = 0; c < arity; ++c) {
      probe[c] = Value::Int(domain[rng.Below(per_column)]);
      key[c] = probe[c].bits();
    }
    Row row(probe.data(), arity);
    const uint64_t dice = rng.Below(1000);
    if (dice == 0) {
      set.clear();
      model.clear();
    } else if (dice < 450) {
      const bool inserted = set.Insert(row, next_id, row_of);
      ASSERT_EQ(inserted, model.insert(key).second) << "op " << op;
      if (inserted) {
        buffer.insert(buffer.end(), probe.begin(), probe.end());
        ++next_id;
      }
    } else if (dice < 750) {
      const uint32_t id = set.Find(row, row_of);
      ASSERT_EQ(id != RowIdSet::kNone, model.count(key) > 0) << "op " << op;
      if (id != RowIdSet::kNone) {
        ASSERT_TRUE(std::equal(row.begin(), row.end(), row_of(id).begin()));
      }
    } else {
      const uint32_t id = set.Erase(row, row_of);
      ASSERT_EQ(id != RowIdSet::kNone, model.erase(key) > 0) << "op " << op;
      if (id != RowIdSet::kNone) {
        ASSERT_TRUE(std::equal(row.begin(), row.end(), row_of(id).begin()));
      }
    }
    ASSERT_EQ(set.size(), model.size()) << "op " << op;
  }
  // Everything the model holds is still reachable after the churn.
  for (const std::vector<uint64_t>& key : model) {
    for (size_t c = 0; c < arity; ++c) probe[c] = Value::FromBits(key[c]);
    EXPECT_NE(set.Find(Row(probe.data(), arity), row_of), RowIdSet::kNone);
  }
}

TEST(RowIdSet, MatchesStdSetAtArityZero) { RowIdSetMatchesStdSet(0, 1, 1); }

TEST(RowIdSet, MatchesStdSetAtArityOne) { RowIdSetMatchesStdSet(1, 61, 2); }

TEST(RowIdSet, MatchesStdSetAtArityThree) { RowIdSetMatchesStdSet(3, 4, 3); }

TEST(RowIdSet, ClearKeepsWorking) {
  std::vector<Value> buffer;
  auto row_of = [&buffer](uint32_t id) { return Row(&buffer[id], 1); };
  RowIdSet set;
  for (int round = 0; round < 3; ++round) {
    buffer.clear();
    set.clear();
    EXPECT_TRUE(set.empty());
    for (int i = 0; i < 1000; ++i) {
      const Value v = Value::Int(i * (round + 1));
      ASSERT_TRUE(set.Insert(Row(&v, 1), static_cast<uint32_t>(i), row_of));
      buffer.push_back(v);
    }
    EXPECT_EQ(set.size(), 1000u);
    const Value absent = Value::Int(-1);
    EXPECT_EQ(set.Find(Row(&absent, 1), row_of), RowIdSet::kNone);
  }
}

// ---- Relation delta and base -----------------------------------------------

std::vector<Value> IntRow(int64_t a, int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

TEST(Relation, EraseThenReinsertOverDelta) {
  Relation rel("r", 2);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(rel.Insert(MakeRow(IntRow(i, -i))));
  Relation victims("victims", 2);
  for (int i : {1, 4, 9}) victims.Insert(MakeRow(IntRow(i, -i)));
  victims.Insert(MakeRow(IntRow(100, 100)));  // absent: not counted
  EXPECT_EQ(rel.EraseRows(victims), 3u);
  EXPECT_EQ(rel.size(), 7u);
  EXPECT_EQ(rel.slots(), 10u);
  for (int i = 0; i < 10; ++i) {
    const bool erased = i == 1 || i == 4 || i == 9;
    EXPECT_EQ(rel.Contains(MakeRow(IntRow(i, -i))), !erased) << i;
  }
  // Erasing again finds nothing.
  EXPECT_EQ(rel.EraseRows(victims), 0u);
  for (int i : {1, 4, 9}) {
    EXPECT_TRUE(rel.Insert(MakeRow(IntRow(i, -i))));
    EXPECT_FALSE(rel.Insert(MakeRow(IntRow(i, -i))));
    EXPECT_TRUE(rel.Contains(MakeRow(IntRow(i, -i))));
  }
  EXPECT_EQ(rel.size(), 10u);
  EXPECT_EQ(rel.slots(), 13u);
}

// A relation whose rows 0..n-1 sit in a base segment, loaded from a v3
// snapshot written to a scratch file.
class BaseRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = StrCat(::testing::TempDir(), "/seprec_storage_",
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name(),
                   ".v3");
    Database source;
    Relation* rel = *source.CreateRelation("t", 2);
    for (int i = 0; i < 20; ++i) rel->Insert(MakeRow(IntRow(i, i * i)));
    ASSERT_TRUE(SaveSnapshotV3File(source, path_).ok());
    ASSERT_TRUE(LoadSnapshotV3File(&db_, path_).ok());
    t_ = db_.Find("t");
    ASSERT_EQ(t_->base_slots(), 20u);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
  Database db_;
  Relation* t_ = nullptr;
};

TEST_F(BaseRelationTest, EraseThenReinsertOverBaseAndDelta) {
  ASSERT_TRUE(t_->Insert(MakeRow(IntRow(100, 1))));
  ASSERT_TRUE(t_->Insert(MakeRow(IntRow(101, 1))));
  Relation victims("victims", 2);
  victims.Insert(MakeRow(IntRow(3, 9)));     // base
  victims.Insert(MakeRow(IntRow(100, 1)));   // delta
  victims.Insert(MakeRow(IntRow(3, 10)));    // absent
  EXPECT_EQ(t_->EraseRows(victims), 2u);
  EXPECT_EQ(t_->size(), 20u);
  EXPECT_EQ(t_->base_dead(), 1u);
  EXPECT_FALSE(t_->Contains(MakeRow(IntRow(3, 9))));
  EXPECT_FALSE(t_->Contains(MakeRow(IntRow(100, 1))));
  EXPECT_TRUE(t_->Contains(MakeRow(IntRow(4, 16))));
  EXPECT_TRUE(t_->Contains(MakeRow(IntRow(101, 1))));

  // Both come back, as delta rows.
  EXPECT_TRUE(t_->Insert(MakeRow(IntRow(3, 9))));
  EXPECT_TRUE(t_->Insert(MakeRow(IntRow(100, 1))));
  EXPECT_FALSE(t_->Insert(MakeRow(IntRow(3, 9))));
  EXPECT_TRUE(t_->Contains(MakeRow(IntRow(3, 9))));
  EXPECT_TRUE(t_->Contains(MakeRow(IntRow(100, 1))));
  EXPECT_EQ(t_->size(), 22u);
  EXPECT_EQ(t_->delta_rows(), 3u);

  // The re-inserted base row erases from the delta this time.
  Relation again("again", 2);
  again.Insert(MakeRow(IntRow(3, 9)));
  EXPECT_EQ(t_->EraseRows(again), 1u);
  EXPECT_FALSE(t_->Contains(MakeRow(IntRow(3, 9))));
  EXPECT_EQ(t_->base_dead(), 1u);
  EXPECT_EQ(t_->size(), 21u);
}

TEST(Relation, ClearThenRefill) {
  Relation rel("r", 2);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(rel.Insert(MakeRow(IntRow(i, round))));
    }
    EXPECT_EQ(rel.size(), 500u);
    EXPECT_TRUE(rel.Contains(MakeRow(IntRow(499, round))));
    if (round > 0) {
      EXPECT_FALSE(rel.Contains(MakeRow(IntRow(0, round - 1))));
    }
    rel.Clear();
    EXPECT_EQ(rel.size(), 0u);
    EXPECT_FALSE(rel.Contains(MakeRow(IntRow(0, round))));
  }
  // Rows from before a Clear are new again.
  EXPECT_TRUE(rel.Insert(MakeRow(IntRow(7, 0))));
  EXPECT_FALSE(rel.Insert(MakeRow(IntRow(7, 0))));
  EXPECT_EQ(rel.size(), 1u);
}

// ---- Answer ------------------------------------------------------------------

TEST(Answer, Deduplicates) {
  Answer answer(2);
  answer.Add(MakeRow(IntRow(1, 2)));
  answer.Add(MakeRow(IntRow(2, 1)));
  answer.Add(MakeRow(IntRow(1, 2)));
  EXPECT_EQ(answer.size(), 2u);
  EXPECT_TRUE(answer.Contains(MakeRow(IntRow(1, 2))));
  EXPECT_FALSE(answer.Contains(MakeRow(IntRow(1, 1))));
  // row(i) is insertion order.
  EXPECT_EQ(answer.row(0)[0], Value::Int(1));
  EXPECT_EQ(answer.row(1)[0], Value::Int(2));
}

TEST(Answer, ZeroArityHoldsAtMostTheEmptyTuple) {
  SymbolTable symbols;
  Answer answer(0);
  EXPECT_TRUE(answer.empty());
  EXPECT_FALSE(answer.Contains(Row{}));
  EXPECT_TRUE(answer.ToStrings(symbols).empty());
  answer.Add(Row{});
  answer.Add(Row{});
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Row{}));
  EXPECT_EQ(answer.ToStrings(symbols), std::vector<std::string>{"()"});
  EXPECT_NE(answer, Answer(0));
}

TEST(Answer, EqualityIgnoresInsertionOrder) {
  Answer a(2);
  Answer b(2);
  for (int i = 0; i < 50; ++i) a.Add(MakeRow(IntRow(i, i % 7)));
  for (int i = 49; i >= 0; --i) {
    b.Add(MakeRow(IntRow(i, i % 7)));
    b.Add(MakeRow(IntRow(i, i % 7)));
  }
  EXPECT_EQ(a, b);
  b.Add(MakeRow(IntRow(50, 1)));
  EXPECT_NE(a, b);
  a.Add(MakeRow(IntRow(51, 1)));
  EXPECT_NE(a, b);  // same size, different tuples
  Answer wide(3);
  EXPECT_NE(Answer(2), wide);
}

TEST(Answer, ToStringsRendersEveryValueKind) {
  SymbolTable symbols;
  const Value sym42 = symbols.Intern("42");
  const Value spaced = symbols.Intern("a b");
  const Value quoted = symbols.Intern("say \"hi\"");
  const Value apostrophe = symbols.Intern("it's");
  const std::vector<std::vector<Value>> rows = {
      {Value::Int(-5), sym42},
      {sym42, Value::Int(42)},
      {Value::Int(42), sym42},
      {Value::Int(Value::kMinInt), Value::Int(Value::kMaxInt)},
      {spaced, quoted},
      {apostrophe, Value::Int(0)},
  };
  Answer answer(2);
  for (const std::vector<Value>& row : rows) answer.Add(MakeRow(row));
  ASSERT_EQ(answer.size(), rows.size());
  const std::vector<std::string> expected = {
      "(-2305843009213693952, 2305843009213693951)",
      "(-5, 42)",
      "(42, 42)",
      "(42, 42)",
      "(a b, say \"hi\")",
      "(it's, 0)",
  };
  EXPECT_EQ(answer.ToStrings(symbols), expected);
  EXPECT_EQ(symbols.ToString(Value::Int(Value::kMinInt)),
            "-2305843009213693952");
  EXPECT_EQ(symbols.ToString(sym42), "42");
}

}  // namespace
}  // namespace seprec
