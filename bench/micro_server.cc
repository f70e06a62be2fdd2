// Service-layer cache ladder: what a repeated request costs at each cache
// depth (DESIGN.md section 10).
//
//   cold_compile      PurgeAll() before every request — parse + detection
//                     + schema compilation + phase 1 + phase 2
//   plan_cache_hit    PurgeClosures() before every request — the compiled
//                     plan is reused, phase 1 + phase 2 still run
//   closure_cache_hit warm service — phase 1 is skipped from the cached
//                     closure, only phase 2 (join + remaining classes) runs
//   closure_cache_hit_wide_catalog
//                     the same warm request against a database that also
//                     holds 2,000 relations the query never reads — the
//                     per-request checkpoint must cost what the request
//                     writes, not the catalog's size
//
// The workload anchors the query on a MOVING class (tc(X, end) over an
// edge chain) so phase 1 genuinely iterates: the ladder's bottom rung
// measures the paper's per-selection cost with the per-program and
// per-shape work amortised away. The gate expectation is monotone:
// cold_compile > plan_cache_hit > closure_cache_hit, and the wide-catalog
// rung stays within 1.5x of closure_cache_hit (SEPREC_CHECKed).
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "server/service.h"

namespace seprec {
namespace {

constexpr size_t kChain = 96;    // edge chain length
constexpr size_t kRequests = 40; // requests averaged per ladder rung
constexpr size_t kIdleRelations = 2000;  // extra catalog of the wide rung

std::string ChainProgram(size_t n) {
  std::string program;
  for (size_t i = 0; i + 1 < n; ++i) {
    program += StrCat("edge(n", i, ", n", i + 1, ").\n");
  }
  program +=
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
  return program;
}

struct Rung {
  const char* name;
  double seconds = 0;      // mean per request
  double median = 0;       // median per request (the wide-catalog gate)
  size_t answers = 0;
  size_t tuples = 0;       // tuples inserted per request
  size_t phase1_rounds = 0;  // fixpoint rounds spent closing the anchor
};

// Runs `kRequests` identical requests, calling `reset` before each, and
// returns the mean cost. The first request of every rung is discarded as
// warmup for the layers `reset` intentionally leaves in place.
template <typename Reset>
Rung Measure(const char* name, QueryService* service,
             const ServiceRequest& request, Reset&& reset) {
  Rung rung;
  rung.name = name;
  double total = 0;
  std::vector<double> samples;
  for (size_t i = 0; i <= kRequests; ++i) {
    reset();
    WallTimer timer;
    StatusOr<std::vector<QueryOutcome>> out = service->Execute(request);
    double seconds = timer.Seconds();
    SEPREC_CHECK(out.ok());
    SEPREC_CHECK(out->size() == 1);
    if (i == 0) continue;  // warmup
    total += seconds;
    samples.push_back(seconds);
    rung.answers = (*out)[0].result.answer.size();
    rung.tuples = (*out)[0].result.stats.tuples_inserted;
    rung.phase1_rounds = 0;
    for (const EvalStats::RoundStats& r : (*out)[0].result.stats.rounds) {
      if (r.phase == "phase1") ++rung.phase1_rounds;
    }
  }
  rung.seconds = total / kRequests;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  rung.median = samples[samples.size() / 2];
  return rung;
}

void Run() {
  using bench::Fmt;
  using bench::FmtSeconds;

  bench::Banner(
      "Service cache ladder: cold compile vs plan-cache hit vs "
      "closure-cache hit\n"
      "    tc(X, end) over an edge chain — phase 1 closes the anchor "
      "class");

  Database db;
  QueryService service(&db);
  ServiceRequest request;
  request.program = ChainProgram(kChain);
  request.query = StrCat("tc(X, n", kChain - 1, ")");

  Rung cold = Measure("cold_compile", &service, request,
                      [&] { service.PurgeAll(); });
  Rung plan = Measure("plan_cache_hit", &service, request,
                      [&] { service.PurgeClosures(); });
  Rung closure = Measure("closure_cache_hit", &service, request, [] {});

  // The idle relations exist before the service starts, so every request
  // checkpoints against a catalog kIdleRelations wider.
  Database wide_db;
  for (size_t i = 0; i < kIdleRelations; ++i) {
    Relation* idle = *wide_db.CreateRelation(StrCat("idle", i), 1);
    idle->Insert({wide_db.symbols().Intern(StrCat("c", i))});
  }
  QueryService wide_service(&wide_db);
  Rung wide = Measure("closure_cache_hit_wide_catalog", &wide_service,
                      request, [] {});

  SEPREC_CHECK(cold.answers == plan.answers);
  SEPREC_CHECK(cold.answers == closure.answers);
  SEPREC_CHECK(cold.answers == wide.answers);
  // The bottom rung genuinely skips phase 1: the cold and plan-hit runs
  // iterate the anchor-class loop, the closure hit runs zero rounds of it.
  SEPREC_CHECK(plan.phase1_rounds > 0);
  SEPREC_CHECK(closure.phase1_rounds == 0);
  SEPREC_CHECK(wide.phase1_rounds == 0);
  // Catalog width must not show in the request cost. Medians, so one
  // preempted request cannot fail the gate.
  SEPREC_CHECK(wide.median <= 1.5 * closure.median);

  bench::Table table({"rung", "mean/request", "answers", "phase1 rounds",
                      "vs cold"});
  for (const Rung* rung : {&cold, &plan, &closure, &wide}) {
    table.AddRow({rung->name, FmtSeconds(rung->seconds), Fmt(rung->answers),
                  Fmt(rung->phase1_rounds),
                  StrCat(Fmt(100.0 * rung->seconds / cold.seconds), "%")});
    bench::Session::Get().Record(rung->name, rung->seconds, rung->tuples,
                                 /*peak_bytes=*/0);
  }
  table.Print();
  bench::Note(StrCat("\n  ", kRequests, " requests per rung, chain n = ",
                     kChain, "; closure hits skip phase 1 entirely."));
  bench::Note(StrCat("  wide catalog (+", kIdleRelations,
                     " idle relations) / closure hit, medians: ",
                     Fmt(wide.median / closure.median), "x (gate 1.5x)"));
}

}  // namespace
}  // namespace seprec

int main(int argc, char** argv) {
  seprec::bench::Session::Get().Init(argc, argv);
  seprec::Run();
  return 0;
}
