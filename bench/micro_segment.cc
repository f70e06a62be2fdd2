// Segment-storage costs (DESIGN.md section 15): merge join vs hash join
// on segment-backed inputs, and mmap cold-start vs reloading the same
// rows from TSV text.
//
//   merge_join   h(Y, Z) :- r(X, Y), s(X, Z). with both relations
//                mmap-backed and ordered: the planner picks the merge
//                join (checked), which streams both segments once,
//                buffering each right-side key group sequentially
//   hash_join    the same rule with PlanOptions::allow_merge off:
//                scan r, build s's hash index, probe per binding —
//                paying the index build plus bucket chasing on the
//                duplicate keys
//   mmap_load    LoadSnapshotV3File over the v3 segment file: footer
//                parse, page CRC sweep, relations attach mmapped —
//                no per-tuple work at all
//   tsv_reload   LoadRelationTsv over the same rows as TSV text (built
//                here with SaveRelationTsv): tokenise, classify,
//                insert every tuple
//
// Both joins must produce bit-identical answers; the merge join must
// beat the hash join by the acceptance margin (its inputs arrive
// pre-sorted, so it skips the index build and the per-probe hashing),
// and the mmap cold-start must beat the TSV reload outright. The
// segment files themselves must compress sequential-key data to under
// half the raw row bytes — delta+varint coding is the point of the
// page format.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datalog/parser.h"
#include "eval/join_plan.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/segment/segment.h"
#include "storage/segment/snapshot_v3.h"
#include "util/logging.h"

namespace seprec {
namespace {

constexpr int64_t kKeys = 100000;  // distinct join keys
constexpr int64_t kRDup = 2;       // rows per key in r (200k rows)
constexpr int64_t kSDup = 4;       // rows per key in s (400k rows)
constexpr size_t kReps = 3;        // timed repetitions per phase

// The bait query: two relations sharing a sequential-int leading key, so
// both segments store long runs of small deltas and the merge join walks
// the two files in lockstep. Duplicate keys on both sides make the hash
// probe chase multimap buckets where the merge walks its group buffer.
constexpr char kRule[] = "h(Y, Z) :- r(X, Y), s(X, Z).";

void FillWorkload(Database* db) {
  Relation* r = *db->CreateRelation("r", 2);
  Relation* s = *db->CreateRelation("s", 2);
  for (int64_t k = 0; k < kKeys; ++k) {
    for (int64_t j = 0; j < kRDup; ++j) {
      r->Insert({Value::Int(k), Value::Int(j * kKeys + k + 1000000)});
    }
    for (int64_t j = 0; j < kSDup; ++j) {
      s->Insert({Value::Int(k), Value::Int(j * kKeys + k)});
    }
  }
}

// Compiles the rule against `db` with merge joins allowed or not,
// asserting the planner chose `want_algo`.
RulePlan CompileJoin(Database* db, bool allow_merge,
                     const char* want_algo) {
  Program p = ParseProgramOrDie(kRule);
  PlanOptions options;
  options.allow_merge = allow_merge;
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], db, options);
  SEPREC_CHECK(plan.ok());
  SEPREC_CHECK(plan->plan_info().algo == want_algo);
  return *std::move(plan);
}

// Materialises the plan's output (untimed) as a sorted fingerprint, for
// the bit-identical-answers check between the two algorithms.
std::vector<std::pair<uint64_t, uint64_t>> Fingerprint(RulePlan& plan) {
  Relation out("out", 2);
  plan.ExecuteInto(&out);
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(out.size());
  out.ForEachRow([&pairs](Row row) {
    pairs.emplace_back(row[0].bits(), row[1].bits());
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void Run() {
  using bench::Fmt;
  using bench::FmtSeconds;

  bench::Banner(
      "Segment storage: merge vs hash join, mmap cold-start vs TSV reload\n"
      "    r(X, Y) 200k rows, s(X, Z) 400k rows, 100k shared int keys");

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       StrCat("seprec_micro_segment_",
              static_cast<unsigned long>(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  SEPREC_CHECK(std::filesystem::create_directories(dir));
  const std::string v3_path = StrCat(dir, "/db.v3");
  std::string r_tsv;
  std::string s_tsv;
  {
    Database db;
    FillWorkload(&db);
    SEPREC_CHECK(SaveSnapshotV3File(db, v3_path).ok());
    std::ostringstream r_out;
    std::ostringstream s_out;
    SEPREC_CHECK(SaveRelationTsv(db, "r", r_out).ok());
    SEPREC_CHECK(SaveRelationTsv(db, "s", s_out).ok());
    r_tsv = r_out.str();
    s_tsv = s_out.str();
  }

  // Compression gate: sequential keys must delta-code to well under the
  // raw row bytes (the reason the page format exists).
  uint64_t segment_bytes = 0;
  uint64_t raw_bytes = 0;
  {
    Database db;
    SEPREC_CHECK(LoadSnapshotV3File(&db, v3_path).ok());
    for (const char* name : {"r", "s"}) {
      const Relation* rel = db.Find(name);
      SEPREC_CHECK(rel->base_segment() != nullptr);
      segment_bytes += rel->base_segment()->data_bytes();
      raw_bytes += uint64_t{rel->size()} * rel->arity() * sizeof(Value);
    }
    SEPREC_CHECK(segment_bytes * 2 < raw_bytes);
  }

  // merge_join / hash_join: fresh database per rep so each run pays its
  // own cold costs (page decode for merge, index build for hash). The
  // timed region is CountDerivations — the join machinery itself, with a
  // counting sink — so the shared per-output dedup-insert cost does not
  // drown the operator difference; the materialised answers are compared
  // bit for bit outside the timer.
  double merge_total = 0;
  double hash_total = 0;
  size_t out_rows = 0;
  for (size_t rep = 0; rep <= kReps; ++rep) {
    double merge_s = 0;
    double hash_s = 0;
    {
      Database merge_db;
      SEPREC_CHECK(LoadSnapshotV3File(&merge_db, v3_path).ok());
      RulePlan plan = CompileJoin(&merge_db, /*allow_merge=*/true, "merge");
      WallTimer timer;
      out_rows = plan.CountDerivations();
      merge_s = timer.Seconds();
      if (rep == 0) {
        Database hash_db;
        SEPREC_CHECK(LoadSnapshotV3File(&hash_db, v3_path).ok());
        RulePlan hash_plan =
            CompileJoin(&hash_db, /*allow_merge=*/false, "hash");
        SEPREC_CHECK(Fingerprint(plan) == Fingerprint(hash_plan));
      }
    }
    {
      Database hash_db;
      SEPREC_CHECK(LoadSnapshotV3File(&hash_db, v3_path).ok());
      RulePlan plan = CompileJoin(&hash_db, /*allow_merge=*/false, "hash");
      WallTimer timer;
      SEPREC_CHECK(plan.CountDerivations() == out_rows);
      hash_s = timer.Seconds();
    }
    if (rep > 0) {
      merge_total += merge_s;
      hash_total += hash_s;
    }
  }
  double merge_s = merge_total / kReps;
  double hash_s = hash_total / kReps;

  // mmap_load / tsv_reload: the restart path with and without segments.
  double mmap_total = 0;
  double tsv_total = 0;
  size_t expected_tuples = 0;
  for (size_t rep = 0; rep <= kReps; ++rep) {
    {
      Database db;
      WallTimer timer;
      SEPREC_CHECK(LoadSnapshotV3File(&db, v3_path).ok());
      double seconds = timer.Seconds();
      expected_tuples = db.TotalTuples();
      if (rep > 0) mmap_total += seconds;
    }
    {
      Database db;
      std::istringstream r_in(r_tsv);
      std::istringstream s_in(s_tsv);
      WallTimer timer;
      SEPREC_CHECK(LoadRelationTsv(&db, "r", r_in).ok());
      SEPREC_CHECK(LoadRelationTsv(&db, "s", s_in).ok());
      double seconds = timer.Seconds();
      SEPREC_CHECK(db.TotalTuples() == expected_tuples);
      if (rep > 0) tsv_total += seconds;
    }
  }
  double mmap_s = mmap_total / kReps;
  double tsv_s = tsv_total / kReps;
  std::filesystem::remove_all(dir);

  // Acceptance gates, held over time by the baseline comparison.
  SEPREC_CHECK(merge_s * 1.5 <= hash_s);
  SEPREC_CHECK(mmap_s < tsv_s);

  bench::Table table({"phase", "mean", "tuples/s", "note"});
  table.AddRow({"merge_join", FmtSeconds(merge_s),
                Fmt(static_cast<size_t>(out_rows / merge_s)),
                StrCat(Fmt(hash_s / merge_s), "x vs hash")});
  table.AddRow({"hash_join", FmtSeconds(hash_s),
                Fmt(static_cast<size_t>(out_rows / hash_s)), "ablation"});
  table.AddRow({"mmap_load", FmtSeconds(mmap_s),
                Fmt(static_cast<size_t>(expected_tuples / mmap_s)),
                StrCat(Fmt(tsv_s / mmap_s), "x vs TSV")});
  table.AddRow({"tsv_reload", FmtSeconds(tsv_s),
                Fmt(static_cast<size_t>(expected_tuples / tsv_s)),
                "text path"});
  bench::Session::Get().Record("merge_join", merge_s, out_rows,
                               /*peak_bytes=*/0);
  bench::Session::Get().Record("hash_join", hash_s, out_rows,
                               /*peak_bytes=*/0);
  bench::Session::Get().Record("mmap_load", mmap_s, expected_tuples,
                               /*peak_bytes=*/0);
  bench::Session::Get().Record("tsv_reload", tsv_s, expected_tuples,
                               /*peak_bytes=*/0);
  table.Print();
  bench::Note(StrCat("\n  segment data pages: ", segment_bytes,
                     " bytes for ", raw_bytes,
                     " raw row bytes (compression ",
                     Fmt(static_cast<double>(raw_bytes) / segment_bytes),
                     "x)"));
}

}  // namespace
}  // namespace seprec

int main(int argc, char** argv) {
  seprec::bench::Session::Get().Init(argc, argv);
  seprec::Run();
  return 0;
}
