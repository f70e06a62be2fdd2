// Per-relation statistics for the cost-based planner.
//
// RelationStats carries the tuple count and a per-column distinct-value
// estimate; StatsCatalog caches one entry per relation and refreshes it
// lazily whenever the relation's (size, slots, mutation_epoch)
// fingerprint changes. Inserts move size and slots; erases, clears and
// copies — which can otherwise be followed by inserts restoring the exact
// same extent with different contents — bump the relation's mutation
// epoch, so readers never need explicit invalidation hooks on the
// mutation paths.
//
// The catalog is owned by Database (see Database::stats()) so statistics
// survive across plan compilations and the PreparedQuery cache amortizes
// the distinct-count scans, mirroring how RDF-3X keeps aggregated counts
// beside the facts segments for its PlanGen.
#ifndef SEPREC_PLAN_STATS_H_
#define SEPREC_PLAN_STATS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"

namespace seprec {

struct RelationStats {
  size_t rows = 0;
  // distinct[c] = number of distinct values in column c (>= 1 whenever
  // rows >= 1; exactly counted up to kSampleCap rows, extrapolated past
  // it). Empty relations report rows == 0 and distinct[c] == 0.
  std::vector<size_t> distinct;
  // Where the numbers came from, for `analyze --explain-plan`:
  //   kExact        read off the relation's aggregated segment (build-time
  //                 counts over every row — no scan, no approximation)
  //   kSampled      full scan (relation fits under kSampleCap)
  //   kExtrapolated scan stopped at kSampleCap; distincts are the prefix's
  enum class Source { kSampled, kExtrapolated, kExact };
  Source source = Source::kSampled;
  // True when the relation serves its rows in canonical sorted order
  // cheaply (base segment attached; the delta above it is small by
  // construction) — the property merge joins need.
  bool ordered = false;
};

// "exact" | "sampled" | "extrapolated", for plan notes and traces.
const char* StatsSourceName(RelationStats::Source source);

class StatsCatalog {
 public:
  // Rows beyond this cap are not scanned; the distinct counts observed in
  // the prefix are kept as-is (a conservative lower bound — under-counting
  // distincts over-estimates matches, which only makes the planner more
  // cautious about unselective joins).
  static constexpr size_t kSampleCap = 1 << 16;

  StatsCatalog() = default;
  StatsCatalog(const StatsCatalog&) = delete;
  StatsCatalog& operator=(const StatsCatalog&) = delete;

  // Returns (a copy of) current statistics for `rel`, recomputing if the
  // cached entry's (size, slots, mutation_epoch) fingerprint is stale.
  // Thread-safe.
  RelationStats Get(const Relation& rel);

  // Drops the cached entry for a relation about to be destroyed, so a
  // later relation allocated at the same address cannot inherit it.
  void Forget(const Relation* rel);

  // Drops everything (bulk reloads, recovery).
  void Clear();

  // Number of full recomputations performed, and of cached entries (test
  // observability).
  uint64_t recomputations() const;
  size_t entries() const;

 private:
  struct Entry {
    size_t size = 0;
    size_t slots = 0;
    uint64_t mutation_epoch = 0;
    RelationStats stats;
  };

  mutable std::mutex mu_;
  std::unordered_map<const Relation*, Entry> cache_;
  uint64_t recomputations_ = 0;
};

// Computes statistics for a relation by scanning it (up to
// StatsCatalog::kSampleCap rows). Exposed for tests and one-off callers
// without a catalog.
RelationStats ComputeRelationStats(const Relation& rel);

}  // namespace seprec

#endif  // SEPREC_PLAN_STATS_H_
