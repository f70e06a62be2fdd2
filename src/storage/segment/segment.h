// Sorted, delta/varint-compressed relation segments in fixed-size pages.
//
// Modeled on RDF-3X's FactsSegment/AggregatedFactsSegment (DESIGN.md
// section 15): a relation's live rows, sorted lexicographically by raw
// Value bits (the same canonical order StagingSink::MergeInto uses), are
// packed into 4 KiB pages. Within a page the first row stores every column
// as a full varint; each following row stores the count of leading columns
// it shares with its predecessor, one strictly-positive varint delta for
// the first differing column, and full varints for the rest. Full-value
// varints rotate the word left by one bit first: Value keeps its int tag
// in bit 63, which would force every integer to a 10-byte varint, while
// rotated the tag rides in bit 0 and small payloads encode small. Deltas
// stay unrotated — between same-typed neighbours the tag cancels in the
// subtraction. Every page ends in a CRC32C over its other 4092 bytes, so
// a flipped byte is reported as corruption of a specific page — never
// silently decoded.
//
// Beside the data pages, an aggregated projection segment stores one
// (column-0 value, row count) pair per distinct leading value, in the same
// page format family. Together with the exact per-column distinct counts
// recorded in the file footer it gives StatsCatalog exact statistics
// without sampling.
//
// A RelationSegment is immutable and internally caches decoded pages
// (built once under a mutex, published through atomics, never evicted):
// untouched pages cost nothing beyond the mmap reservation, which is what
// lets `serve --data-dir` open databases larger than RAM. Decoded-page
// cache memory is intentionally NOT charged to any MemoryAccountant — it
// is the user-space analog of the OS page cache, not query heap.
#ifndef SEPREC_STORAGE_SEGMENT_SEGMENT_H_
#define SEPREC_STORAGE_SEGMENT_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/segment/paged_file.h"
#include "storage/value.h"
#include "util/status.h"

namespace seprec {

inline constexpr size_t kSegmentPageSize = 4096;
// Payload bytes per page: size minus the u16 row count and the CRC32C.
inline constexpr size_t kSegmentPagePayload = kSegmentPageSize - 2 - 4;

// Where one relation's segments live inside a snapshot-v3 file, parsed
// from the footer. Offsets are absolute byte offsets into the file.
struct SegmentGeometry {
  std::string name;
  uint32_t arity = 0;
  uint64_t rows = 0;
  uint64_t data_offset = 0;
  uint32_t data_pages = 0;
  // Cumulative row index at the start of each data page, plus a final
  // entry equal to `rows` — page p holds rows [start[p], start[p+1]).
  std::vector<uint64_t> page_row_start;
  // First row of each data page, raw bits, row-major (data_pages * arity).
  std::vector<uint64_t> page_first_row;
  uint64_t agg_offset = 0;
  uint32_t agg_pages = 0;
  // First column-0 value (raw bits) of each aggregated page.
  std::vector<uint64_t> agg_first_value;
  uint64_t agg_entries = 0;  // total (value, count) pairs == distinct[0]
  // Exact per-column distinct counts, computed at build time.
  std::vector<uint64_t> distinct;
};

class RelationSegment {
 public:
  RelationSegment(std::shared_ptr<const PagedFileReader> file,
                  SegmentGeometry geometry);
  RelationSegment(const RelationSegment&) = delete;
  RelationSegment& operator=(const RelationSegment&) = delete;

  size_t arity() const { return geometry_.arity; }
  uint64_t rows() const { return geometry_.rows; }
  size_t num_pages() const { return geometry_.data_pages; }
  // Compressed on-disk footprint of the data pages (bench observability).
  uint64_t data_bytes() const {
    return uint64_t{geometry_.data_pages} * kSegmentPageSize;
  }
  const std::vector<uint64_t>& distinct() const { return geometry_.distinct; }
  uint64_t agg_entries() const { return geometry_.agg_entries; }
  bool mmapped() const { return file_->mmapped(); }

  // Pointer to row `idx` (0 <= idx < rows()), decoding its page on first
  // touch. The returned pointer (arity() Values) stays valid for the
  // segment's lifetime. Aborts on a corrupt page — recovery verifies every
  // page CRC up front (VerifyPages), so a failure here means the file
  // changed underneath a live mapping.
  const Value* row(uint64_t idx) const;

  // Index of the first row whose leading key.size() columns are >= `key`
  // under raw-bits lexicographic order; rows() when none is.
  uint64_t LowerBound(const Value* key, size_t key_len) const;

  // Exact-match lookup of a full row: its index, or rows() when absent.
  uint64_t Find(const Value* row, size_t len) const;

  // Number of base rows whose column 0 equals `v`, answered from the
  // aggregated segment (0 when absent).
  StatusOr<uint64_t> PrefixCount(Value v) const;

  // Re-reads and CRC-checks every data and aggregated page. A mismatch is
  // reported as corruption naming the (relation-relative) page index.
  Status VerifyPages() const;

  // Decodes one data page (kSegmentPageSize bytes at `page`) into `out`
  // (row-major, rows * arity Values appended). `page_index` and `name`
  // only label the error. Verifies the page CRC first.
  static Status DecodeDataPage(const uint8_t* page, size_t page_index,
                               const std::string& name, size_t arity,
                               std::vector<Value>* out);

  // Decodes one aggregated page into parallel (value bits, count) vectors.
  static Status DecodeAggPage(const uint8_t* page, size_t page_index,
                              const std::string& name,
                              std::vector<uint64_t>* values,
                              std::vector<uint64_t>* counts);

 private:
  // Decoded rows of data page `p`, building the cache entry on first use.
  const Value* PageRows(size_t p) const;

  std::shared_ptr<const PagedFileReader> file_;
  SegmentGeometry geometry_;

  // Lazy per-page decode cache: pages_[p] is null until decoded, then a
  // pointer into storage_ published with release/acquire. Entries are
  // never evicted, so pointers handed out by row() stay valid.
  mutable std::vector<std::atomic<const Value*>> pages_;
  mutable std::vector<std::unique_ptr<Value[]>> storage_;
  mutable std::mutex decode_mu_;
};

// Streaming builder for one relation's segments. Feed rows in canonical
// (raw-bits lexicographic) sorted order; full data pages are emitted to
// the sink as they close. Finish() flushes the last data page, emits the
// aggregated pages, and returns the geometry (with offsets relative to
// the builder's own output — the caller rebases them onto file offsets).
class SegmentBuilder {
 public:
  // `emit` receives each finished kSegmentPageSize-byte page in order:
  // first every data page, then (after Finish) every aggregated page.
  using PageSink = std::function<Status(const uint8_t* page)>;

  SegmentBuilder(std::string name, size_t arity, PageSink emit);

  // Appends one row (arity Values, strictly greater than its predecessor
  // in raw-bits order). Returns an error if a single row cannot fit in an
  // empty page (pathologically wide rows).
  Status Add(const Value* row);

  // Flushes pending pages and finalises the geometry. `data_offset` /
  // `agg_offset` in the result count pages from this builder's first page.
  StatusOr<SegmentGeometry> Finish();

 private:
  Status FlushDataPage();
  Status FlushAggPage();
  Status AddAggEntry(uint64_t value_bits, uint64_t count);

  std::string name_;
  size_t arity_;
  PageSink emit_;
  SegmentGeometry geo_;

  std::vector<uint8_t> page_;      // current data page payload bytes
  std::vector<uint64_t> prev_row_; // previous row's bits (empty at page/start)
  std::vector<uint64_t> first_row_;  // first row of the current page
  uint32_t rows_in_page_ = 0;

  std::vector<uint8_t> agg_page_;  // current aggregated page payload
  uint64_t agg_prev_value_ = 0;
  uint64_t agg_first_value_ = 0;
  uint32_t agg_entries_in_page_ = 0;
  std::vector<std::vector<uint8_t>> agg_pages_done_;  // buffered agg pages

  // Run-length state for the aggregated (column-0, count) stream.
  uint64_t run_value_ = 0;
  uint64_t run_count_ = 0;

  // Exact distinct tracking: distinct[c] counts transitions in sorted
  // order for c == 0 (free); other columns use hash sets.
  std::vector<std::unordered_set<uint64_t>> seen_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_SEGMENT_SEGMENT_H_
