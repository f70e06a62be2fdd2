// Parallelism must be invisible: for every program and strategy,
// --threads N returns exactly the serial answers — down to relation slot
// order — and budget trips under parallelism still degrade to sound
// subsets. min_rows_per_task is forced to 1 throughout so the parallel
// paths actually engage on test-sized inputs instead of taking the
// small-round serial shortcut.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "separable/engine.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

FixpointOptions ParallelOptions(size_t threads) {
  FixpointOptions options;
  options.limits.parallel.num_threads = threads;
  options.limits.parallel.min_rows_per_task = 1;
  return options;
}

struct Workload {
  std::string name;
  Program program;
  Atom query;
  std::function<void(Database*)> load;
  std::vector<Strategy> strategies;
};

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> workloads;
  workloads.push_back(
      {"tc_chain", TransitiveClosureProgram(), ParseAtomOrDie("tc(v0, Y)"),
       [](Database* db) { MakeChain(db, "edge", "v", 40); },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
        Strategy::kSemiNaive}});
  workloads.push_back(
      {"tc_random", TransitiveClosureProgram(), ParseAtomOrDie("tc(v0, Y)"),
       [](Database* db) {
         MakeRandomGraph(db, "edge", "v", 30, 90, 7);
         // Guarantee v0 reaches the graph so the query is never empty.
         MakeFact(db, "edge", {"v0", "v1"});
       },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
        Strategy::kSemiNaive}});
  workloads.push_back(
      {"example11", Example11Program(), ParseAtomOrDie("buys(a0, Y)"),
       [](Database* db) { MakeExample11Data(db, 10); },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
        Strategy::kSemiNaive}});
  workloads.push_back(
      {"example12", Example12Program(), ParseAtomOrDie("buys(a0, Y)"),
       [](Database* db) { MakeExample12Data(db, 25); },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kMagic,
        Strategy::kSemiNaive}});
  workloads.push_back(
      {"example24", Example24Program(), ParseAtomOrDie("t(x0, Y, Z)"),
       [](Database* db) { MakeExample24Data(db, 12); },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kSemiNaive}});
  workloads.push_back(
      {"spk", SpkProgram(2, 2), FirstColumnQuery("t", 2, "c0"),
       [](Database* db) { MakeLemma42Data(db, 2, 2, 4); },
       {Strategy::kAuto, Strategy::kSeparable, Strategy::kSemiNaive}});
  // Same-generation is linear but NOT separable; it exercises the
  // partitioned semi-naive path with a multi-literal recursive rule.
  workloads.push_back(
      {"same_generation", SameGenerationProgram(),
       ParseAtomOrDie("sg(X, Y)"),
       [](Database* db) { MakeSameGenerationData(db, 2, 4); },
       {Strategy::kAuto, Strategy::kSemiNaive}});
  return workloads;
}

std::vector<std::string> AnswersWithThreads(const Workload& w, Strategy s,
                                            size_t threads) {
  auto qp = QueryProcessor::Create(w.program);
  SEPREC_CHECK(qp.ok());
  Database db;
  w.load(&db);
  auto result = qp->Answer(w.query, &db, s, ParallelOptions(threads));
  SEPREC_CHECK(result.ok());
  SEPREC_CHECK(!result->partial);
  return result->answer.ToStrings(db.symbols());
}

TEST(Parallel, ThreadCountIsInvisibleInAnswers) {
  for (const Workload& w : AllWorkloads()) {
    for (Strategy s : w.strategies) {
      auto serial = AnswersWithThreads(w, s, 1);
      EXPECT_FALSE(serial.empty()) << w.name;
      for (size_t threads : {2u, 4u, 8u}) {
        EXPECT_EQ(AnswersWithThreads(w, s, threads), serial)
            << w.name << " strategy " << StrategyToString(s) << " threads "
            << threads;
      }
    }
  }
}

// Stronger than answer equality: the materialised relations must match
// SLOT BY SLOT. Every round merges through the canonically-ordered
// ShardedSink, so insertion order — and with it slot ids, iteration
// counts, and stats — is thread-count-invariant.
TEST(Parallel, SemiNaiveMaterialisesIdenticalSlotOrder) {
  auto materialise = [](size_t threads, EvalStats* stats) {
    auto db = std::make_unique<Database>();
    MakeRandomGraph(db.get(), "edge", "v", 25, 80, 11);
    Status status = EvaluateSemiNaive(TransitiveClosureProgram(), db.get(),
                                      ParallelOptions(threads), stats);
    SEPREC_CHECK(status.ok());
    return db;
  };
  EvalStats serial_stats;
  auto serial = materialise(1, &serial_stats);
  for (size_t threads : {2u, 4u}) {
    EvalStats stats;
    auto parallel = materialise(threads, &stats);
    EXPECT_EQ(stats.iterations, serial_stats.iterations)
        << threads << " threads";
    EXPECT_EQ(stats.max_relation_size, serial_stats.max_relation_size)
        << threads << " threads";
    ASSERT_EQ(parallel->RelationNames(), serial->RelationNames());
    for (const std::string& name : serial->RelationNames()) {
      const Relation* a = serial->Find(name);
      const Relation* b = parallel->Find(name);
      ASSERT_EQ(a->slots(), b->slots()) << name;
      for (size_t slot = 0; slot < a->slots(); ++slot) {
        Row ra = a->row(slot);
        Row rb = b->row(slot);
        for (size_t c = 0; c < ra.size(); ++c) {
          ASSERT_EQ(ra[c].bits(), rb[c].bits())
              << name << " slot " << slot << " col " << c << " with "
              << threads << " threads";
        }
      }
    }
  }
}

TEST(Parallel, SeparableSchemaRunsAreThreadCountInvariant) {
  // Example 1.2 has two equivalence classes, so phase 2 does real carry
  // work; the partitioned phase-2 loop must reproduce the serial rounds.
  auto run = [](size_t threads) {
    Database db;
    MakeExample12Data(&db, 30);
    auto result =
        EvaluateWithSeparable(Example12Program(), ParseAtomOrDie("buys(a0, Y)"),
                              &db, ParallelOptions(threads));
    SEPREC_CHECK(result.ok());
    return std::make_tuple(result->answer.ToStrings(db.symbols()),
                           result->stats.iterations, result->schema_runs);
  };
  auto serial = run(1);
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

TEST(Parallel, BudgetTripsDegradeToSoundSubsets) {
  // The PartialAnswersAreSubsetsOfFullAnswers property must survive
  // parallelism: workers poll the governor mid-round, so a budget can trip
  // with rows staged in the sink — those rows still merge, and every one
  // of them is a true tuple (monotone strata).
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Atom query = ParseAtomOrDie("tc(v0, Y)");

  Database full_db;
  MakeChain(&full_db, "edge", "v", 80);
  auto full = qp->Answer(query, &full_db, Strategy::kAuto, ParallelOptions(4));
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->partial);
  std::vector<std::string> full_strings =
      full->answer.ToStrings(full_db.symbols());
  std::sort(full_strings.begin(), full_strings.end());

  struct Trip {
    std::string name;
    std::function<void(FixpointOptions*)> apply;
  };
  std::vector<Trip> trips;
  for (size_t budget : {2u, 4u, 8u, 16u}) {
    trips.push_back({StrCat("iterations=", budget),
                     [budget](FixpointOptions* o) {
                       o->limits.max_iterations = budget;
                     }});
  }
  for (size_t budget : {1u << 10, 1u << 12, 1u << 14}) {
    trips.push_back({StrCat("bytes=", budget), [budget](FixpointOptions* o) {
                       o->limits.max_bytes = budget;
                     }});
  }
  trips.push_back({"deadline=0ms", [](FixpointOptions* o) {
                     o->limits.timeout_ms = 0;
                   }});

  bool saw_partial = false;
  for (const Trip& trip : trips) {
    Database db;
    MakeChain(&db, "edge", "v", 80);
    const std::vector<std::string> names_before = db.RelationNames();
    FixpointOptions options = ParallelOptions(4);
    trip.apply(&options);
    auto limited = qp->Answer(query, &db, Strategy::kAuto, options);
    ASSERT_TRUE(limited.ok()) << trip.name;
    std::vector<std::string> subset = limited->answer.ToStrings(db.symbols());
    std::sort(subset.begin(), subset.end());
    EXPECT_TRUE(std::includes(full_strings.begin(), full_strings.end(),
                              subset.begin(), subset.end()))
        << trip.name;
    if (limited->partial) {
      saw_partial = true;
      // The truncated parallel attempt left no trace.
      EXPECT_EQ(db.RelationNames(), names_before) << trip.name;
    }
  }
  EXPECT_TRUE(saw_partial);
}

TEST(Parallel, GovernorPollFailpointFiresDuringParallelRounds) {
  // Workers poll ShouldStop between plan executions, so the governor.poll
  // site is evaluated from pool threads mid-round; arming it injects a
  // cancellation that must surface as CANCELLED (direct engine contract)
  // after a clean worker shutdown.
  FailpointSpec spec;
  spec.skip = 5;
  ScopedFailpoint fp("governor.poll", spec);
  Database db;
  MakeChain(&db, "edge", "v", 40);
  Status status = EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                    ParallelOptions(4));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_GE(Failpoints::FireCount("governor.poll"), 1u);
}

TEST(Parallel, MinRowsPerTaskGatesButNeverChangesResults) {
  // Sweeping the serial-shortcut threshold across "always parallel",
  // "sometimes", and "never" must not move a single answer.
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Atom query = ParseAtomOrDie("tc(v0, Y)");
  std::vector<std::string> expected;
  for (size_t min_rows : {1u, 4u, 64u, 100000u}) {
    Database db;
    MakeRandomGraph(&db, "edge", "v", 20, 60, 3);
    FixpointOptions options;
    options.limits.parallel.num_threads = 4;
    options.limits.parallel.min_rows_per_task = min_rows;
    auto result = qp->Answer(query, &db, Strategy::kSemiNaive, options);
    ASSERT_TRUE(result.ok());
    std::vector<std::string> answers = result->answer.ToStrings(db.symbols());
    if (expected.empty()) {
      expected = answers;
      ASSERT_FALSE(expected.empty());
    } else {
      EXPECT_EQ(answers, expected) << "min_rows_per_task " << min_rows;
    }
  }
}

}  // namespace
}  // namespace seprec
