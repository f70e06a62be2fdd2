// Hash helpers used by tuple storage and indexes.
#ifndef SEPREC_UTIL_HASH_H_
#define SEPREC_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "storage/value.h"

namespace seprec {

// Mixes `value` into `seed` (boost::hash_combine-style with a 64-bit
// constant). Order-sensitive, suitable for hashing tuples column by column.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // Golden-ratio constant; the shifts spread entropy across all bits.
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

// Hashes `n` consecutive 64-bit words starting at `data`.
inline uint64_t HashWords(const uint64_t* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, data[i]);
  }
  return h;
}

// Canonical FNV-1a-seeded hash of a tuple of Values, column by column.
// Every row-level dedup structure (Relation's row set, StagingSink,
// Answer, Index probes) hashes through this one function, so a row's hash
// is identical everywhere.
inline uint64_t HashRow(std::span<const Value> row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Value v : row) h = HashCombine(h, v.bits());
  return h;
}

// Finalizer from SplitMix64; useful to turn a counter into a well-mixed hash.
inline uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace seprec

#endif  // SEPREC_UTIL_HASH_H_
