// DRed incremental maintenance: after any sequence of EDB insertions and
// deletions, every IDB relation must equal a from-scratch evaluation.
#include "eval/incremental.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/trace.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "storage/io.h"
#include "util/rng.h"

namespace seprec {
namespace {

// From-scratch reference: evaluate `program` over a copy of db's EDB.
std::string ScratchIdb(const Program& program, const Database& db,
                       const std::string& edb_rel,
                       const std::string& idb_rel) {
  Database fresh;
  const Relation* edb = db.Find(edb_rel);
  Relation* copy = *fresh.CreateRelation(edb_rel, edb->arity());
  edb->ForEachRow([&](Row r) {
    std::vector<Value> row;
    for (Value v : r) {
      row.push_back(fresh.symbols().Intern(db.symbols().ToString(v)));
    }
    copy->Insert(Row(row.data(), row.size()));
  });
  SEPREC_CHECK(EvaluateSemiNaive(program, &fresh).ok());
  return fresh.Find(idb_rel)->DebugString(fresh.symbols());
}

TEST(Incremental, CreateRejectsNegationAndAggregates) {
  Database db;
  EXPECT_FALSE(IncrementalEngine::Create(
                   ParseProgramOrDie("p(X) :- q(X), not r(X)."), &db)
                   .ok());
  EXPECT_FALSE(IncrementalEngine::Create(
                   ParseProgramOrDie("c(count(X)) :- q(X)."), &db)
                   .ok());
  EXPECT_TRUE(
      IncrementalEngine::Create(TransitiveClosureProgram(), &db).ok());
}

TEST(Incremental, InsertionsPropagate) {
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Initialize().ok());
  EXPECT_EQ(db.Find("tc")->size(), 0u);

  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  EXPECT_EQ(db.Find("tc")->size(), 1u);
  ASSERT_TRUE(engine->AddFact("edge", {"b", "c"}).ok());
  EXPECT_EQ(db.Find("tc")->size(), 3u);  // +(b,c), (a,c)
  ASSERT_TRUE(engine->AddFact("edge", {"c", "d"}).ok());
  EXPECT_EQ(db.Find("tc")->size(), 6u);
  EXPECT_EQ(engine->last_update().inserted, 3u);
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));
}

TEST(Incremental, DuplicateInsertIsNoOp) {
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  EXPECT_EQ(engine->last_update().inserted, 0u);
  EXPECT_EQ(db.Find("tc")->size(), 1u);
}

TEST(Incremental, UpdateAndInitializeReportWallTime) {
  Database db;
  MakeChain(&db, "edge", "v", 5);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  EvalStats init_stats;
  ASSERT_TRUE(engine->Initialize(&init_stats).ok());
  EXPECT_GT(init_stats.seconds, 0.0);

  ASSERT_TRUE(engine->AddFact("edge", {"v4", "v0"}).ok());
  EXPECT_GT(engine->last_update().seconds, 0.0);
  ASSERT_TRUE(engine->RemoveFact("edge", {"v4", "v0"}).ok());
  EXPECT_GT(engine->last_update().seconds, 0.0);
}

TEST(Incremental, SimpleDeletionBreaksPath) {
  Database db;
  MakeChain(&db, "edge", "v", 5);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  EXPECT_EQ(db.Find("tc")->size(), 10u);

  // Remove the middle edge: tc splits in two.
  ASSERT_TRUE(engine->RemoveFact("edge", {"v2", "v3"}).ok());
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));
  EXPECT_EQ(db.Find("tc")->size(), 4u);  // v0-v1-v2 and v3-v4 closures
  EXPECT_GT(engine->last_update().overdeleted, 0u);
}

TEST(Incremental, DiamondRederivation) {
  // Two paths a->d; removing one edge must keep tc(a,d) via the other.
  Database db;
  for (auto [x, y] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}) {
    ASSERT_TRUE(db.AddFact("edge", {x, y}).ok());
  }
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());

  ASSERT_TRUE(engine->RemoveFact("edge", {"b", "d"}).ok());
  // tc(a,d) was overdeleted but rederived through c.
  EXPECT_GT(engine->last_update().rederived, 0u);
  Value a = db.symbols().Intern("a");
  Value d = db.symbols().Intern("d");
  EXPECT_TRUE(db.Find("tc")->Contains(std::vector<Value>{a, d}));
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));
}

TEST(Incremental, EngineFinishCountsEachRederivedTupleOnce) {
  // Left-linear tc over a->b, b->c, c->d, a->c. Removing a->b overdeletes
  // tc(a, b), tc(a, c) and tc(a, d); tc(a, c) comes back directly through
  // a->c and cascades tc(a, d). `rederived` counts both, and so does
  // `inserted` for the cascaded one, so engine_finish must report 2
  // distinct tuples, not inserted + rederived = 3.
  Database db;
  for (auto [x, y] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}}) {
    ASSERT_TRUE(db.AddFact("edge", {x, y}).ok());
  }
  const Program program = ParseProgramOrDie(R"(
    tc(X, Y) :- tc(X, Z) & edge(Z, Y).
    tc(X, Y) :- edge(X, Y).
  )");
  auto engine = IncrementalEngine::Create(program, &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());

  CollectingTraceSink trace;
  engine->set_trace(&trace);
  ASSERT_TRUE(engine->RemoveFact("edge", {"a", "b"}).ok());
  const UpdateStats& stats = engine->last_update();
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.overdeleted, 3u);
  EXPECT_EQ(stats.rederived, 2u);
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(program, db, "edge", "tc"));

  size_t finishes = 0;
  for (const TraceEvent& e : trace.Events()) {
    if (e.kind != TraceEventKind::kEngineFinish) continue;
    ++finishes;
    EXPECT_EQ(e.engine, "incremental");
    EXPECT_EQ(e.tuples, 2u);
  }
  EXPECT_EQ(finishes, 1u);
}

TEST(Incremental, DeleteOnCycle) {
  Database db;
  MakeCycle(&db, "edge", "v", 4);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  EXPECT_EQ(db.Find("tc")->size(), 16u);
  ASSERT_TRUE(engine->RemoveFact("edge", {"v3", "v0"}).ok());
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));
  EXPECT_EQ(db.Find("tc")->size(), 6u);  // plain chain closure
}

TEST(Incremental, RemoveNonexistentIsNoOp) {
  Database db;
  MakeChain(&db, "edge", "v", 4);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  size_t before = db.Find("tc")->size();
  ASSERT_TRUE(engine->RemoveFact("edge", {"v3", "v0"}).ok());
  ASSERT_TRUE(engine->RemoveFact("edge", {"ghost", "spirit"}).ok());
  EXPECT_EQ(db.Find("tc")->size(), before);
}

TEST(Incremental, RejectsIdbUpdates) {
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->AddFact("tc", {"a", "b"}).ok());
  EXPECT_FALSE(engine->RemoveFact("tc", {"a", "b"}).ok());
}

TEST(Incremental, MultiStratumProgram) {
  Program p = ParseProgramOrDie(
      "link(X, Y) :- edge(X, Y).\n"
      "link(X, Y) :- edge(Y, X).\n"
      "conn(X, Y) :- link(X, Y).\n"
      "conn(X, Y) :- link(X, W), conn(W, Y).");
  Database db;
  MakeChain(&db, "edge", "v", 4);
  auto engine = IncrementalEngine::Create(p, &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->AddFact("edge", {"v3", "x0"}).ok());
  EXPECT_EQ(db.Find("conn")->DebugString(db.symbols()),
            ScratchIdb(p, db, "edge", "conn"));
  ASSERT_TRUE(engine->RemoveFact("edge", {"v1", "v2"}).ok());
  EXPECT_EQ(db.Find("conn")->DebugString(db.symbols()),
            ScratchIdb(p, db, "edge", "conn"));
}

TEST(Incremental, RandomisedMixedWorkloadMatchesScratch) {
  Program tc = TransitiveClosureProgram();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db;
    ASSERT_TRUE(db.CreateRelation("edge", 2).ok());
    auto engine = IncrementalEngine::Create(tc, &db);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->Initialize().ok());

    Rng rng(seed);
    std::set<std::pair<size_t, size_t>> present;
    for (int op = 0; op < 60; ++op) {
      size_t from = rng.Below(8);
      size_t to = rng.Below(8);
      std::vector<std::string> fact = {NodeName("n", from),
                                       NodeName("n", to)};
      if (rng.Chance(0.6) || present.empty()) {
        ASSERT_TRUE(engine->AddFact("edge", fact).ok());
        present.insert({from, to});
      } else {
        ASSERT_TRUE(engine->RemoveFact("edge", fact).ok());
        present.erase({from, to});
      }
      if (op % 10 == 9) {
        ASSERT_EQ(db.Find("tc")->DebugString(db.symbols()),
                  ScratchIdb(tc, db, "edge", "tc"))
            << "seed " << seed << " op " << op;
      }
    }
  }
}

TEST(Incremental, SplitPhaseMirrorsServiceLoadPath) {
  // The service's load path: the CALLER applies the WAL-logged batch to
  // the EDB, the engine only propagates the effective delta. Insert first,
  // then delete, each checked against a from-scratch evaluation.
  Database db;
  MakeChain(&db, "edge", "v", 6);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Initialize().ok());
  EXPECT_TRUE(engine->Maintains("edge"));
  EXPECT_FALSE(engine->Maintains("tc"));

  TupleBatch ins;
  ins.relation = "edge";
  ins.arity = 2;
  ins.rows.push_back({TypedCell::Symbol("x"), TypedCell::Symbol("v0")});
  ins.rows.push_back({TypedCell::Symbol("v0"), TypedCell::Symbol("v1")});
  std::vector<std::vector<Value>> changed;
  ASSERT_TRUE(ApplyTupleBatch(&db, ins, &changed).ok());
  ASSERT_EQ(changed.size(), 1u);  // (v0,v1) is a duplicate, not a delta
  ASSERT_TRUE(engine->PropagateInserted("edge", changed).ok());
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));

  // Delete: overdelete closes against the pre-deletion state, so
  // PrepareRemoval runs BEFORE the erase; FinishRemoval rederives after.
  std::vector<std::vector<Value>> victims;
  victims.push_back({db.symbols().Intern("v2"), db.symbols().Intern("v3")});
  victims.push_back({db.symbols().Intern("no"), db.symbols().Intern("no")});
  ASSERT_TRUE(engine->PrepareRemoval("edge", victims).ok());
  TupleBatch del;
  del.relation = "edge";
  del.arity = 2;
  del.op = BatchOp::kDelete;
  del.rows.push_back({TypedCell::Symbol("v2"), TypedCell::Symbol("v3")});
  del.rows.push_back({TypedCell::Symbol("no"), TypedCell::Symbol("no")});
  ASSERT_TRUE(ApplyTupleBatch(&db, del).ok());
  ASSERT_TRUE(engine->FinishRemoval().ok());
  EXPECT_EQ(db.Find("tc")->DebugString(db.symbols()),
            ScratchIdb(TransitiveClosureProgram(), db, "edge", "tc"));
}

TEST(Incremental, SplitPhaseOrderingEnforced) {
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  EXPECT_EQ(engine->FinishRemoval().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  std::vector<std::vector<Value>> victims;
  victims.push_back({db.symbols().Intern("a"), db.symbols().Intern("b")});
  ASSERT_TRUE(engine->PrepareRemoval("edge", victims).ok());
  EXPECT_EQ(engine->PrepareRemoval("edge", victims).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine->FinishRemoval().ok());
}

TEST(Incremental, StatsAreReported) {
  Database db;
  MakeChain(&db, "edge", "v", 6);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->RemoveFact("edge", {"v0", "v1"}).ok());
  const UpdateStats& stats = engine->last_update();
  EXPECT_EQ(stats.overdeleted, 5u);  // (v0, v1..v5)
  EXPECT_EQ(stats.rederived, 0u);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_NE(stats.ToString().find("overdeleted: 5"), std::string::npos);
}

}  // namespace
}  // namespace seprec
