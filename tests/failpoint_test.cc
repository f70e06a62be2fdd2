// Tests for the failpoint registry and for every registered injection site.
#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "storage/io.h"
#include "storage/segment/snapshot_v3.h"

namespace seprec {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisarmAll(); }
  void TearDown() override { Failpoints::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Registry mechanics.

TEST_F(FailpointTest, RegistryKnowsAllSites) {
  const std::vector<std::string> expected = {
      "io.load_tsv",    "io.save_tsv",        "snapshot.load",
      "snapshot.save",  "governor.poll",      "governor.charge",
      "compiler.separable", "compiler.magic",
      "snapshot.write", "snapshot.rename",    "wal.open",
      "wal.append",     "wal.fsync",          "wal.truncate",
      "manifest.write", "manifest.rename"};
  for (const std::string& site : expected) {
    EXPECT_TRUE(Failpoints::IsRegistered(site)) << site;
  }
  EXPECT_FALSE(Failpoints::IsRegistered("no.such.site"));
  EXPECT_EQ(Failpoints::Sites().size(), expected.size());
}

TEST_F(FailpointTest, CrashActionExitsWithCrashCode) {
  FailpointSpec spec;
  spec.crash = true;
  Failpoints::Arm("wal.append", spec);
  EXPECT_EXIT((void)Failpoints::Check("wal.append"),
              ::testing::ExitedWithCode(kCrashExitCode), "");
}

TEST_F(FailpointTest, CrashActionHonoursSkip) {
  FailpointSpec spec;
  spec.crash = true;
  spec.skip = 1;
  Failpoints::Arm("wal.fsync", spec);
  EXPECT_TRUE(Failpoints::Check("wal.fsync").ok());  // skipped
  EXPECT_EXIT((void)Failpoints::Check("wal.fsync"),
              ::testing::ExitedWithCode(kCrashExitCode), "");
}

TEST_F(FailpointTest, DisarmedSitesNeverFire) {
  EXPECT_TRUE(Failpoints::Check("io.load_tsv").ok());
  EXPECT_FALSE(Failpoints::Hit("governor.poll"));
  EXPECT_EQ(Failpoints::FireCount("io.load_tsv"), 0u);
}

TEST_F(FailpointTest, ArmFireDisarm) {
  Failpoints::Arm("io.load_tsv", {});
  Status status = Failpoints::Check("io.load_tsv");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("io.load_tsv"), std::string::npos);
  EXPECT_EQ(Failpoints::FireCount("io.load_tsv"), 1u);
  Failpoints::Disarm("io.load_tsv");
  EXPECT_TRUE(Failpoints::Check("io.load_tsv").ok());
}

TEST_F(FailpointTest, SkipAndCountControlFiring) {
  FailpointSpec spec;
  spec.skip = 2;
  spec.count = 1;
  Failpoints::Arm("governor.poll", spec);
  EXPECT_FALSE(Failpoints::Hit("governor.poll"));  // evaluation 1: skipped
  EXPECT_FALSE(Failpoints::Hit("governor.poll"));  // evaluation 2: skipped
  EXPECT_TRUE(Failpoints::Hit("governor.poll"));   // evaluation 3: fires
  EXPECT_FALSE(Failpoints::Hit("governor.poll"));  // count exhausted
  EXPECT_EQ(Failpoints::FireCount("governor.poll"), 1u);
}

TEST_F(FailpointTest, CustomCodeAndMessage) {
  FailpointSpec spec;
  spec.code = StatusCode::kFailedPrecondition;
  spec.message = "disk on fire";
  Failpoints::Arm("snapshot.save", spec);
  Status status = Failpoints::Check("snapshot.save");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "disk on fire");
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint scoped("io.save_tsv");
    EXPECT_FALSE(Failpoints::Check("io.save_tsv").ok());
  }
  EXPECT_TRUE(Failpoints::Check("io.save_tsv").ok());
}

TEST_F(FailpointTest, RearmResetsCounters) {
  Failpoints::Arm("io.load_tsv", {});
  (void)Failpoints::Check("io.load_tsv");
  EXPECT_EQ(Failpoints::FireCount("io.load_tsv"), 1u);
  Failpoints::Arm("io.load_tsv", {});
  EXPECT_EQ(Failpoints::FireCount("io.load_tsv"), 0u);
}

// ---------------------------------------------------------------------------
// Every registered site, exercised through its real code path.

TEST_F(FailpointTest, SiteIoLoadTsv) {
  ScopedFailpoint scoped("io.load_tsv");
  Database db;
  std::istringstream in("a\tb\n");
  auto added = LoadRelationTsv(&db, "edge", in);
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInternal);
  EXPECT_NE(added.status().message().find("io.load_tsv"), std::string::npos);
  EXPECT_EQ(db.Find("edge"), nullptr);
}

TEST_F(FailpointTest, SiteIoSaveTsv) {
  Database db;
  ASSERT_TRUE(db.AddFact("edge", {"a", "b"}).ok());
  ScopedFailpoint scoped("io.save_tsv");
  std::ostringstream out;
  Status status = SaveRelationTsv(db, "edge", out);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(out.str().empty());
}

TEST_F(FailpointTest, SiteSnapshotSave) {
  Database db;
  MakeChain(&db, "edge", "v", 3);
  const std::string path = ::testing::TempDir() + "/seprec_fp_save.v3";
  std::remove(path.c_str());
  {
    ScopedFailpoint scoped("snapshot.save");
    EXPECT_EQ(SaveSnapshotV3File(db, path).code(), StatusCode::kInternal);
  }
  // The save failed before the rename, so nothing reached `path`.
  Database restored;
  EXPECT_EQ(LoadSnapshotV3File(&restored, path).code(),
            StatusCode::kNotFound);
  std::remove((path + ".tmp").c_str());
}

TEST_F(FailpointTest, SiteSnapshotLoad) {
  Database db;
  MakeChain(&db, "edge", "v", 3);
  const std::string path = ::testing::TempDir() + "/seprec_fp_load.v3";
  ASSERT_TRUE(SaveSnapshotV3File(db, path).ok());
  ScopedFailpoint scoped("snapshot.load");
  Database restored;
  EXPECT_EQ(LoadSnapshotV3File(&restored, path).code(),
            StatusCode::kInternal);
  EXPECT_TRUE(restored.RelationNames().empty());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, SiteGovernorPollInjectsCancellation) {
  // governor.poll fires inside ExecutionContext::ShouldStop and behaves
  // like an external cancellation request hitting mid-fixpoint.
  ScopedFailpoint scoped("governor.poll");
  Database db;
  MakeChain(&db, "edge", "v", 20);
  Status status = EvaluateSemiNaive(TransitiveClosureProgram(), &db);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("injected"), std::string::npos);
}

TEST_F(FailpointTest, SiteGovernorChargeInjectsAllocationSpike) {
  // governor.charge makes one insertion look like a terabyte allocation.
  FailpointSpec spec;
  spec.count = 1;
  ScopedFailpoint scoped("governor.charge", spec);
  Database db;
  Relation* r = *db.CreateRelation("r", 1);
  r->Insert({Value::Int(1)});
  EXPECT_GE(db.accountant().bytes(), size_t{1} << 40);
}

TEST_F(FailpointTest, SiteGovernorChargeTripsByteBudget) {
  Database db;
  MakeChain(&db, "edge", "v", 20);
  // Arm after loading the EDB so the spike hits an insertion made by the
  // evaluation itself, inside the governed window.
  FailpointSpec spec;
  spec.count = 1;
  ScopedFailpoint scoped("governor.charge", spec);
  FixpointOptions options;
  options.limits.max_bytes = size_t{1} << 30;
  Status status =
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, options);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("bytes"), std::string::npos);
}

TEST_F(FailpointTest, SiteCompilerSeparable) {
  ScopedFailpoint scoped("compiler.separable");
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 5);
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kSeparable);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("compiler.separable"),
            std::string::npos);
}

TEST_F(FailpointTest, SiteCompilerMagic) {
  ScopedFailpoint scoped("compiler.magic");
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 5);
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kMagic);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace seprec
