#include "plan/stats.h"

#include <unordered_set>

#include "storage/segment/segment.h"

namespace seprec {

const char* StatsSourceName(RelationStats::Source source) {
  switch (source) {
    case RelationStats::Source::kExact: return "exact";
    case RelationStats::Source::kSampled: return "sampled";
    case RelationStats::Source::kExtrapolated: return "extrapolated";
  }
  return "?";
}

RelationStats ComputeRelationStats(const Relation& rel) {
  RelationStats stats;
  stats.rows = rel.size();
  const size_t arity = rel.arity();
  stats.distinct.assign(arity, 0);
  stats.ordered = rel.base_segment() != nullptr;
  if (stats.rows == 0 || arity == 0) return stats;

  // A pristine segment-backed relation answers from its aggregated
  // projection: exact rows and exact per-column distincts, computed once
  // at segment build time — no scan, no page decodes, no sampling cap.
  if (const auto& base = rel.base_segment();
      base != nullptr && rel.delta_rows() == 0 && rel.base_dead() == 0) {
    stats.rows = static_cast<size_t>(base->rows());
    for (size_t c = 0; c < arity; ++c) {
      stats.distinct[c] = static_cast<size_t>(base->distinct()[c]);
    }
    stats.source = RelationStats::Source::kExact;
    return stats;
  }

  std::vector<std::unordered_set<uint64_t>> seen(arity);
  size_t scanned = 0;
  rel.ForEachRow([&](Row row) {
    if (scanned >= StatsCatalog::kSampleCap) return;
    ++scanned;
    for (size_t c = 0; c < arity; ++c) {
      seen[c].insert(row[c].bits());
    }
  });
  for (size_t c = 0; c < arity; ++c) {
    stats.distinct[c] = seen[c].size();
  }
  stats.source = stats.rows > StatsCatalog::kSampleCap
                     ? RelationStats::Source::kExtrapolated
                     : RelationStats::Source::kSampled;
  return stats;
}

RelationStats StatsCatalog::Get(const Relation& rel) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = cache_[&rel];
  if (entry.stats.distinct.size() != rel.arity() ||
      entry.size != rel.size() || entry.slots != rel.slots() ||
      entry.mutation_epoch != rel.mutation_epoch()) {
    entry.size = rel.size();
    entry.slots = rel.slots();
    entry.mutation_epoch = rel.mutation_epoch();
    entry.stats = ComputeRelationStats(rel);
    ++recomputations_;
  }
  return entry.stats;
}

void StatsCatalog::Forget(const Relation* rel) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.erase(rel);
}

void StatsCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

uint64_t StatsCatalog::recomputations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recomputations_;
}

size_t StatsCatalog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace seprec
