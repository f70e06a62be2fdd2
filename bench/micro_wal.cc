// Durability-layer costs: WAL append throughput, and binary WAL replay
// vs re-loading the equivalent TSV text (DESIGN.md section 12).
//
//   append       LogBatch into a fresh data dir (fsync off, so the number
//                is the encode+write cost, not the disk's)
//   recover      DurableStorage::Open over the resulting dir: manifest
//                read, WAL scan+checksum, typed replay into an empty
//                Database
//   tsv_reload   LoadRelationTsv of the identical tuples from TSV text —
//                the pre-WAL restart path (tokenise, type-classify,
//                intern, insert)
//
// The WAL's reason to exist at restart is that replay skips tokenising
// and type classification (the typing decision is baked into each record
// at parse time), so the bench checks recover beats tsv_reload outright;
// the baseline gate then holds all three entries to the usual tolerance.
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "util/logging.h"

namespace seprec {
namespace {

constexpr size_t kBatches = 200;      // one per simulated load op
constexpr size_t kRowsPerBatch = 250; // 50k tuples total
constexpr size_t kReps = 5;           // timed repetitions per phase

// Mixed-type rows: two symbols plus an integer, so tsv_reload pays the
// integer classification the WAL records skip.
std::vector<TupleBatch> MakeWorkload() {
  std::vector<TupleBatch> batches;
  batches.reserve(kBatches);
  size_t serial = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    TupleBatch batch;
    batch.relation = "edge";
    batch.arity = 3;
    batch.rows.reserve(kRowsPerBatch);
    for (size_t r = 0; r < kRowsPerBatch; ++r, ++serial) {
      batch.rows.push_back({TypedCell::Symbol(StrCat("v", serial)),
                            TypedCell::Symbol(StrCat("v", serial + 1)),
                            TypedCell::Int(static_cast<int64_t>(serial))});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string MakeTsv(const std::vector<TupleBatch>& batches) {
  std::string tsv;
  for (const TupleBatch& batch : batches) {
    for (const auto& row : batch.rows) {
      tsv += StrCat(row[0].symbol, "\t", row[1].symbol, "\t",
                    row[2].int_value, "\n");
    }
  }
  return tsv;
}

void Run() {
  using bench::Fmt;
  using bench::FmtSeconds;

  bench::Banner(
      "WAL append throughput and recovery (binary replay) vs TSV reload\n"
      "    200 batches x 250 rows, 3-ary mixed symbol/int tuples");

  const std::vector<TupleBatch> batches = MakeWorkload();
  const std::string tsv = MakeTsv(batches);
  size_t total_rows = 0;
  for (const TupleBatch& b : batches) total_rows += b.rows.size();

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       StrCat("seprec_micro_wal_", static_cast<unsigned long>(::getpid())))
          .string();

  DurabilityOptions opts;
  opts.fsync = FsyncPolicy::kOff;
  opts.checkpoint_bytes = 0;  // keep everything in the WAL for replay

  // append: write every batch into a fresh dir, once per rep.
  double append_total = 0;
  size_t expected_tuples = 0;
  for (size_t rep = 0; rep <= kReps; ++rep) {
    std::filesystem::remove_all(dir);
    Database db;
    StatusOr<std::unique_ptr<DurableStorage>> storage =
        DurableStorage::Open(dir, &db, opts, nullptr);
    SEPREC_CHECK(storage.ok());
    WallTimer timer;
    for (const TupleBatch& batch : batches) {
      SEPREC_CHECK((*storage)->LogBatch(batch).ok());
    }
    double seconds = timer.Seconds();
    // Apply outside the timed region: append is the WAL's own cost.
    for (const TupleBatch& batch : batches) {
      SEPREC_CHECK(ApplyTupleBatch(&db, batch).ok());
    }
    expected_tuples = db.TotalTuples();
    if (rep > 0) append_total += seconds;
  }
  double append_s = append_total / kReps;

  // recover vs tsv_reload: replay the dir the last append rep left
  // behind, and load the same tuples through the text path. The two
  // alternate rep by rep so each ratio compares runs under the same host
  // conditions.
  double recover_total = 0;
  double reload_total = 0;
  std::vector<double> ratios;  // recover / reload, per timed rep
  for (size_t rep = 0; rep <= kReps; ++rep) {
    double recover_rep = 0;
    {
      Database db;
      WallTimer timer;
      StatusOr<std::unique_ptr<DurableStorage>> storage =
          DurableStorage::Open(dir, &db, opts, nullptr);
      recover_rep = timer.Seconds();
      SEPREC_CHECK(storage.ok());
      SEPREC_CHECK(db.TotalTuples() == expected_tuples);
    }
    double reload_rep = 0;
    {
      Database db;
      std::istringstream in(tsv);
      WallTimer timer;
      StatusOr<size_t> added = LoadRelationTsv(&db, "edge", in);
      reload_rep = timer.Seconds();
      SEPREC_CHECK(added.ok());
      SEPREC_CHECK(db.TotalTuples() == expected_tuples);
    }
    if (rep > 0) {
      recover_total += recover_rep;
      reload_total += reload_rep;
      ratios.push_back(recover_rep / reload_rep);
    }
  }
  double recover_s = recover_total / kReps;
  double reload_s = reload_total / kReps;
  std::filesystem::remove_all(dir);

  // Recovery must beat the TSV reload it replaces — the acceptance bar
  // the baseline gate holds over time — in the median rep.
  SEPREC_CHECK(bench::Median(ratios) < 1.0);

  bench::Table table({"phase", "mean", "tuples/s", "vs tsv_reload"});
  struct Row {
    const char* name;
    double seconds;
  };
  for (const Row& row : {Row{"append", append_s}, Row{"recover", recover_s},
                         Row{"tsv_reload", reload_s}}) {
    table.AddRow({row.name, FmtSeconds(row.seconds),
                  Fmt(static_cast<size_t>(total_rows / row.seconds)),
                  StrCat(Fmt(100.0 * row.seconds / reload_s), "%")});
    bench::Session::Get().Record(row.name, row.seconds, total_rows,
                                 /*peak_bytes=*/0);
  }
  table.Print();
  bench::Note(StrCat("\n  ", total_rows, " tuples; recovery replays typed "
                     "records (no tokenising), reload re-parses TSV."));
}

}  // namespace
}  // namespace seprec

int main(int argc, char** argv) {
  seprec::bench::Session::Get().Init(argc, argv);
  seprec::Run();
  return 0;
}
