#include "storage/segment/snapshot_v3.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "storage/segment/paged_file.h"
#include "storage/segment/segment.h"
#include "storage/wal.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kTrailerSize = 16;  // u64 offset + u32 size + u32 crc
static_assert(kMaxRelationNameBytes <= 0xFFFF, "names are u16-prefixed");

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

// Bounds-checked little-endian reader over the footer bytes. Any
// overrun latches ok() false and zero-fills, so parse code can read a
// whole entry and check once.
class FooterCursor {
 public:
  FooterCursor(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}

  uint64_t U64() {
    const uint8_t* b = Take(8);
    if (b == nullptr) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | b[i];
    return v;
  }
  uint32_t U32() {
    const uint8_t* b = Take(4);
    if (b == nullptr) return 0;
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
  }
  uint16_t U16() {
    const uint8_t* b = Take(2);
    if (b == nullptr) return 0;
    return static_cast<uint16_t>(b[0] | b[1] << 8);
  }
  std::string Str(size_t len) {
    const uint8_t* b = Take(len);
    if (b == nullptr) return std::string();
    return std::string(reinterpret_cast<const char*>(b), len);
  }

  // True when `count` fields of `each` bytes fit in the bytes left. A
  // count read from the file must pass this before it sizes a
  // reservation or a loop, so a wild count cannot make the reader
  // allocate.
  bool Fits(uint64_t count, uint64_t each) const {
    return ok_ && count <= static_cast<uint64_t>(end_ - p_) / each;
  }

  bool ok() const { return ok_; }
  bool done() const { return ok_ && p_ == end_; }

 private:
  const uint8_t* Take(size_t n) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return nullptr;
    }
    const uint8_t* b = p_;
    p_ += n;
    return b;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// A v3 file opened and footer-parsed: the shared front half of loading
// and compaction. Geometries carry absolute file offsets.
struct ParsedV3 {
  std::shared_ptr<const PagedFileReader> file;
  std::vector<std::string> symbols;       // stored table, id order
  std::vector<SegmentGeometry> relations; // alphabetical, like the writer
};

Status FooterError(const std::string& path, const char* what) {
  return DataLossError(
      StrCat("snapshot '", path, "': v3 footer is corrupt (", what, ")"));
}

StatusOr<ParsedV3> ParseV3(const std::string& path) {
  ParsedV3 out;
  SEPREC_ASSIGN_OR_RETURN(auto file, PagedFileReader::Open(path));
  out.file = std::move(file);
  const uint8_t* data = out.file->data();
  const uint64_t size = out.file->size();
  if (size < kMagicSize + kTrailerSize ||
      std::memcmp(data, kSnapshotV3Magic, kMagicSize) != 0) {
    return InvalidArgumentError(
        StrCat("snapshot '", path, "' is not a v3 segment file"));
  }
  FooterCursor trailer(data + size - kTrailerSize, kTrailerSize);
  const uint64_t footer_offset = trailer.U64();
  const uint32_t footer_size = trailer.U32();
  const uint32_t footer_crc = trailer.U32();
  if (footer_offset < kMagicSize || footer_size == 0 ||
      footer_offset + footer_size + kTrailerSize != size) {
    return FooterError(path, "trailer offsets");
  }
  if (Crc32c(data + footer_offset, footer_size) != footer_crc) {
    return FooterError(path, "checksum mismatch");
  }
  FooterCursor c(data + footer_offset, footer_size);

  const uint64_t symbol_count = c.U64();
  if (!c.Fits(symbol_count, 4)) return FooterError(path, "symbol count");
  out.symbols.reserve(static_cast<size_t>(symbol_count));
  for (uint64_t i = 0; i < symbol_count; ++i) {
    const uint32_t len = c.U32();
    out.symbols.push_back(c.Str(len));
    if (!c.ok()) return FooterError(path, "symbol spelling");
  }

  const uint32_t relation_count = c.U32();
  for (uint32_t r = 0; r < relation_count; ++r) {
    SegmentGeometry g;
    const uint16_t name_len = c.U16();
    g.name = c.Str(name_len);
    g.arity = c.U32();
    g.rows = c.U64();
    g.data_offset = c.U64();
    g.data_pages = c.U32();
    if (!c.ok() || g.name.empty()) return FooterError(path, "relation entry");
    // Each page-directory entry (row start plus first row) and each
    // per-column distinct count is made of 8-byte fields.
    if (!c.Fits(uint64_t{g.data_pages} * (uint64_t{g.arity} + 1) + g.arity,
                8)) {
      return FooterError(path, "relation geometry");
    }
    g.page_row_start.reserve(size_t{g.data_pages} + 1);
    for (uint32_t p = 0; p < g.data_pages; ++p) {
      g.page_row_start.push_back(c.U64());
      for (uint32_t col = 0; col < g.arity; ++col) {
        g.page_first_row.push_back(c.U64());
      }
    }
    g.page_row_start.push_back(g.rows);
    g.agg_offset = c.U64();
    g.agg_pages = c.U32();
    if (!c.Fits(g.agg_pages, 8)) return FooterError(path, "relation geometry");
    for (uint32_t p = 0; p < g.agg_pages; ++p) {
      g.agg_first_value.push_back(c.U64());
    }
    g.agg_entries = c.U64();
    for (uint32_t col = 0; col < g.arity; ++col) {
      g.distinct.push_back(c.U64());
    }
    if (!c.ok()) return FooterError(path, "relation geometry");
    // Geometry sanity, so RelationSegment's internal checks can't abort
    // on a malformed file: offsets inside the page region, page row
    // directory strictly increasing, per-page counts within u16.
    if (g.arity > 0) {
      // Empty relations carry no pages and zeroed offsets; only page-
      // bearing entries must point inside [magic, footer).
      if (g.data_pages > 0 &&
          (g.data_offset < kMagicSize ||
           g.data_offset + uint64_t{g.data_pages} * kSegmentPageSize >
               footer_offset)) {
        return FooterError(path, "segment offsets");
      }
      if (g.agg_pages > 0 &&
          (g.agg_offset < kMagicSize ||
           g.agg_offset + uint64_t{g.agg_pages} * kSegmentPageSize >
               footer_offset)) {
        return FooterError(path, "segment offsets");
      }
      if ((g.rows > 0) != (g.data_pages > 0)) {
        return FooterError(path, "page count");
      }
      for (size_t p = 0; p + 1 < g.page_row_start.size(); ++p) {
        const uint64_t n = g.page_row_start[p + 1] - g.page_row_start[p];
        if (g.page_row_start[p + 1] <= g.page_row_start[p] || n > 0xFFFF) {
          return FooterError(path, "page row directory");
        }
      }
      if (g.data_pages > 0 && g.page_row_start[0] != 0) {
        return FooterError(path, "page row directory");
      }
    } else if (g.rows > 1 || g.data_pages != 0 || g.agg_pages != 0) {
      return FooterError(path, "nullary relation entry");
    }
    out.relations.push_back(std::move(g));
  }
  if (!c.done()) return FooterError(path, "trailing bytes");
  return out;
}

Status SaveSnapshotV3(const Database& db, std::ostream& out) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("snapshot.save"));
  out.write(kSnapshotV3Magic, kMagicSize);
  uint64_t offset = kMagicSize;
  std::vector<SegmentGeometry> entries;
  for (const std::string& name : db.RelationNames()) {
    // '$'-prefixed relations are engine scratch (semi-naive deltas, magic
    // supports, DRed maintenance state): derivable, owned by live plan
    // and closure objects, and keyed by per-process counters. Recovery
    // rebuilds what it needs, so they are never persisted.
    if (!name.empty() && name[0] == '$') continue;
    const Relation* rel = db.Find(name);
    if (rel->arity() == 0 || rel->empty()) {
      SegmentGeometry g;
      g.name = name;
      g.arity = static_cast<uint32_t>(rel->arity());
      g.rows = rel->size();  // 0, or 1 for a populated nullary relation
      g.distinct.assign(rel->arity(), 0);
      entries.push_back(std::move(g));
      continue;
    }
    const uint64_t start = offset;
    SegmentBuilder builder(name, rel->arity(),
                           [&out, &offset](const uint8_t* page) -> Status {
                             out.write(reinterpret_cast<const char*>(page),
                                       kSegmentPageSize);
                             if (!out) return InternalError("write failed");
                             offset += kSegmentPageSize;
                             return Status::OK();
                           });
    Status add_status;
    rel->ForEachRowOrdered([&builder, &add_status](Row row) {
      if (!add_status.ok()) return;
      add_status = builder.Add(row.data());
    });
    SEPREC_RETURN_IF_ERROR(add_status);
    SEPREC_ASSIGN_OR_RETURN(SegmentGeometry g, builder.Finish());
    g.data_offset = start;
    g.agg_offset = start + g.agg_offset;  // rebase onto file offsets
    entries.push_back(std::move(g));
  }

  std::string footer;
  const SymbolTable& symbols = db.symbols();
  const size_t symbol_count = symbols.size();
  PutU64(&footer, symbol_count);
  for (size_t i = 0; i < symbol_count; ++i) {
    const std::string& name = symbols.NameOf(static_cast<uint32_t>(i));
    PutU32(&footer, static_cast<uint32_t>(name.size()));
    footer += name;
  }
  PutU32(&footer, static_cast<uint32_t>(entries.size()));
  for (const SegmentGeometry& g : entries) {
    PutU16(&footer, static_cast<uint16_t>(g.name.size()));
    footer += g.name;
    PutU32(&footer, g.arity);
    PutU64(&footer, g.rows);
    PutU64(&footer, g.data_offset);
    PutU32(&footer, g.data_pages);
    for (uint32_t p = 0; p < g.data_pages; ++p) {
      PutU64(&footer, g.page_row_start[p]);
      for (uint32_t col = 0; col < g.arity; ++col) {
        PutU64(&footer, g.page_first_row[size_t{p} * g.arity + col]);
      }
    }
    PutU64(&footer, g.agg_offset);
    PutU32(&footer, g.agg_pages);
    for (uint64_t first : g.agg_first_value) PutU64(&footer, first);
    PutU64(&footer, g.agg_entries);
    for (uint64_t d : g.distinct) PutU64(&footer, d);
  }
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));

  std::string trailer;
  PutU64(&trailer, offset);
  PutU32(&trailer, static_cast<uint32_t>(footer.size()));
  PutU32(&trailer, Crc32c(footer.data(), footer.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  if (!out) return InternalError("write failed");
  return Status::OK();
}

}  // namespace

Status SaveSnapshotV3File(const Database& db, const std::string& path) {
  // Write-temp + durable rename: the previous snapshot at `path` stays
  // intact until the replacement is fully on disk.
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("snapshot.write"));
  const std::string tmp = StrCat(path, ".tmp");
  {
    std::ofstream out(tmp,
                      std::ios::out | std::ios::trunc | std::ios::binary);
    if (!out) {
      return InvalidArgumentError(StrCat("cannot write '", tmp, "'"));
    }
    SEPREC_RETURN_IF_ERROR(SaveSnapshotV3(db, out));
    out.flush();
    if (!out) return InternalError(StrCat("write to '", tmp, "' failed"));
  }
  SEPREC_RETURN_IF_ERROR(FsyncPath(tmp));
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("snapshot.rename"));
  return DurableRename(tmp, path);
}

Status LoadSnapshotV3File(Database* db, const std::string& path) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("snapshot.load"));
  SEPREC_ASSIGN_OR_RETURN(ParsedV3 parsed, ParseV3(path));

  // Intern the stored symbol table in id order. In a fresh database this
  // reproduces the stored ids exactly ("identity"), which is what lets
  // segments be attached without rewriting a single value.
  bool identity = true;
  std::vector<Value> remap;
  remap.reserve(parsed.symbols.size());
  for (size_t i = 0; i < parsed.symbols.size(); ++i) {
    Value v = db->symbols().Intern(parsed.symbols[i]);
    if (!v.is_symbol() || v.symbol_id() != i) identity = false;
    remap.push_back(v);
  }

  for (SegmentGeometry& g : parsed.relations) {
    SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                            db->CreateRelation(g.name, g.arity));
    if (g.arity == 0) {
      for (uint64_t i = 0; i < g.rows; ++i) rel->Insert(Row{});
      continue;
    }
    if (g.rows == 0) continue;
    const std::string name = g.name;
    auto segment =
        std::make_shared<RelationSegment>(parsed.file, std::move(g));
    // Eager CRC pass: a flipped byte anywhere fails the load here, named
    // by page — and lazy decodes afterwards can trust the bytes.
    SEPREC_RETURN_IF_ERROR(segment->VerifyPages());
    if (identity && rel->slots() == 0) {
      rel->AttachBaseSegment(std::move(segment));
      continue;
    }
    // Fallback: symbols got remapped (the database was not fresh) or the
    // relation already held rows — materialise through Insert.
    std::vector<Value> row(segment->arity());
    for (uint64_t i = 0; i < segment->rows(); ++i) {
      const Value* stored = segment->row(i);
      for (size_t c = 0; c < row.size(); ++c) {
        if (stored[c].is_symbol()) {
          const uint32_t id = stored[c].symbol_id();
          if (id >= remap.size()) {
            return DataLossError(
                StrCat("snapshot '", path, "': relation '", name,
                       "' references symbol id ", id,
                       " beyond the stored table"));
          }
          row[c] = remap[id];
        } else {
          row[c] = stored[c];
        }
      }
      rel->Insert(Row(row.data(), row.size()));
    }
  }
  db->BumpGeneration();
  return Status::OK();
}

Status CompactToSnapshotSegments(Database* db, const std::string& path) {
  SEPREC_ASSIGN_OR_RETURN(ParsedV3 parsed, ParseV3(path));
  // The file was just written from `db`, so the stored symbol table must
  // be a prefix-identical image of the live one; anything else means the
  // caller broke the "save, then compact" contract.
  if (parsed.symbols.size() > db->symbols().size()) {
    return InternalError(
        StrCat("compaction: snapshot '", path, "' stores ",
               parsed.symbols.size(), " symbols, database has ",
               db->symbols().size()));
  }
  for (size_t i = 0; i < parsed.symbols.size(); ++i) {
    if (db->symbols().NameOf(static_cast<uint32_t>(i)) !=
        parsed.symbols[i]) {
      return InternalError(StrCat("compaction: snapshot '", path,
                                  "' symbol ", i,
                                  " does not match the live table"));
    }
  }
  for (SegmentGeometry& g : parsed.relations) {
    Relation* rel = db->Find(g.name);
    if (rel == nullptr || rel->arity() != g.arity) {
      return InternalError(StrCat("compaction: relation '", g.name,
                                  "' missing or changed since the save"));
    }
    if (g.arity == 0 || g.rows == 0) continue;
    if (rel->size() != g.rows) {
      return InternalError(StrCat("compaction: relation '", g.name,
                                  "' holds ", rel->size(),
                                  " rows, snapshot stores ", g.rows));
    }
    auto segment =
        std::make_shared<RelationSegment>(parsed.file, std::move(g));
    SEPREC_RETURN_IF_ERROR(segment->VerifyPages());
    // Re-seat in place: the Relation object (and every pointer compiled
    // plans hold to it) survives; only its extent moves onto the fresh,
    // delta-free segment. Content is unchanged, so no generation bump.
    rel->Clear();
    rel->AttachBaseSegment(std::move(segment));
  }
  return Status::OK();
}

}  // namespace seprec
