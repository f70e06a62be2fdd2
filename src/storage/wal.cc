#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {
namespace {

constexpr char kWalMagic[kWalHeaderSize] = {'s', 'e', 'p', 'r',
                                           'e', 'c', 'W', '1'};
constexpr uint8_t kRecordBatch = 1;   // BatchOp::kInsert
constexpr uint8_t kRecordDelete = 2;  // BatchOp::kDelete (same layout)
constexpr size_t kRecordHeaderSize = 8;  // u32 len + u32 crc
// A single record cannot usefully exceed this; a length field above it is
// garbage (torn or corrupt), not a real record — without the cap a wild
// length would make ReadWal try to slurp gigabytes.
constexpr uint32_t kMaxRecordPayload = 1u << 30;
// The smallest encoded cell: a tag byte and the u32 length of an empty
// symbol. DecodeBatch bounds row_count x arity by the bytes left / this.
constexpr size_t kMinCellBytes = 5;
static_assert(kMaxRelationNameBytes <= 0xFFFF, "names are u16-prefixed");

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// Bounds-checked little-endian reads over a byte range.
struct Cursor {
  const unsigned char* p;
  size_t left;

  bool U8(uint8_t* v) {
    if (left < 1) return false;
    *v = *p++;
    --left;
    return true;
  }
  bool U16(uint16_t* v) {
    if (left < 2) return false;
    *v = static_cast<uint16_t>(p[0] | p[1] << 8);
    p += 2;
    left -= 2;
    return true;
  }
  bool U32(uint32_t* v) {
    if (left < 4) return false;
    *v = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
    p += 4;
    left -= 4;
    return true;
  }
  bool U64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!U32(&lo) || !U32(&hi)) return false;
    *v = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }
  bool Bytes(size_t n, std::string* out) {
    if (left < n) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
};

std::string EncodeBatch(const TupleBatch& batch) {
  std::string payload;
  payload.push_back(static_cast<char>(
      batch.op == BatchOp::kDelete ? kRecordDelete : kRecordBatch));
  PutU16(&payload, static_cast<uint16_t>(batch.relation.size()));
  payload.append(batch.relation);
  PutU32(&payload, static_cast<uint32_t>(batch.arity));
  PutU32(&payload, static_cast<uint32_t>(batch.rows.size()));
  for (const std::vector<TypedCell>& row : batch.rows) {
    for (const TypedCell& cell : row) {
      if (cell.is_int) {
        payload.push_back('\x01');
        PutU64(&payload, static_cast<uint64_t>(cell.int_value));
      } else {
        payload.push_back('\x00');
        PutU32(&payload, static_cast<uint32_t>(cell.symbol.size()));
        payload.append(cell.symbol);
      }
    }
  }
  return payload;
}

// Decodes one payload; false means the bytes do not parse as a record
// (only reachable through garbage under a matching CRC, by collision or
// by crafting, or a future record type — the caller treats each as
// damage).
bool DecodeBatch(const std::string& payload, TupleBatch* batch) {
  Cursor c{reinterpret_cast<const unsigned char*>(payload.data()),
           payload.size()};
  uint8_t type = 0;
  if (!c.U8(&type) || (type != kRecordBatch && type != kRecordDelete)) {
    return false;
  }
  batch->op = type == kRecordDelete ? BatchOp::kDelete : BatchOp::kInsert;
  uint16_t name_len = 0;
  if (!c.U16(&name_len) || !c.Bytes(name_len, &batch->relation)) {
    return false;
  }
  uint32_t arity = 0;
  uint32_t row_count = 0;
  if (!c.U32(&arity) || !c.U32(&row_count)) return false;
  // Check the counts against the bytes left before they size anything:
  // a count the payload cannot hold is damage, not a big batch. Append
  // never writes arity 0, whose rows would take no bytes at all.
  if (arity == 0 ||
      uint64_t{row_count} * arity > c.left / kMinCellBytes) {
    return false;
  }
  batch->arity = arity;
  batch->rows.clear();
  batch->rows.reserve(row_count);
  for (uint32_t r = 0; r < row_count; ++r) {
    std::vector<TypedCell> row;
    row.reserve(arity);
    for (uint32_t col = 0; col < arity; ++col) {
      uint8_t tag = 0;
      if (!c.U8(&tag)) return false;
      TypedCell cell;
      if (tag == 1) {
        uint64_t bits = 0;
        if (!c.U64(&bits)) return false;
        cell.is_int = true;
        cell.int_value = static_cast<int64_t>(bits);
      } else if (tag == 0) {
        uint32_t len = 0;
        if (!c.U32(&len) || !c.Bytes(len, &cell.symbol)) return false;
      } else {
        return false;
      }
      row.push_back(std::move(cell));
    }
    batch->rows.push_back(std::move(row));
  }
  return c.left == 0;
}

Status WriteAllFd(int fd, const char* data, size_t size,
                  const std::string& path) {
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(
          StrCat("wal '", path, "': write failed (errno ", errno, ")"));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return InternalError(
        StrCat("wal '", path, "': fsync failed (errno ", errno, ")"));
  }
  return Status::OK();
}

}  // namespace

StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return InvalidArgumentError(
      StrCat("unknown fsync policy '", name, "' (always|batch|off)"));
}

std::string_view FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kOff: return "off";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     FsyncPolicy policy,
                                                     uint64_t start_offset) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("wal.open"));
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError(
        StrCat("wal '", path, "': open failed (errno ", errno, ")"));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return InternalError(
        StrCat("wal '", path, "': fstat failed (errno ", errno, ")"));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    // Fresh log: write and sync the magic so a subsequent crash leaves a
    // recognisable (if empty) WAL rather than a zero-byte mystery file.
    if (Status s = WriteAllFd(fd, kWalMagic, kWalHeaderSize, path);
        !s.ok()) {
      ::close(fd);
      return s;
    }
    if (Status s = FsyncFd(fd, path); !s.ok()) {
      ::close(fd);
      return s;
    }
    size = kWalHeaderSize;
    if (start_offset == 0) start_offset = kWalHeaderSize;
  }
  if (start_offset < kWalHeaderSize || start_offset > size) {
    ::close(fd);
    return InternalError(StrCat("wal '", path, "': start offset ",
                                start_offset, " out of range (size ", size,
                                ")"));
  }
  if (start_offset < size) {
    // Drop the torn tail recovery diagnosed before handing us the log.
    if (::ftruncate(fd, static_cast<off_t>(start_offset)) != 0) {
      ::close(fd);
      return InternalError(
          StrCat("wal '", path, "': ftruncate failed (errno ", errno, ")"));
    }
    if (Status s = FsyncFd(fd, path); !s.ok()) {
      ::close(fd);
      return s;
    }
  }
  if (::lseek(fd, static_cast<off_t>(start_offset), SEEK_SET) < 0) {
    ::close(fd);
    return InternalError(
        StrCat("wal '", path, "': lseek failed (errno ", errno, ")"));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, policy, start_offset));
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     FsyncPolicy policy) {
  struct stat st{};
  uint64_t size = 0;
  if (::stat(path.c_str(), &st) == 0) {
    size = static_cast<uint64_t>(st.st_size);
  }
  return Open(path, policy, size);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const TupleBatch& batch) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("wal.append"));
  // EncodeBatch stores the name's length in a u16, and DecodeBatch
  // refuses arity 0: refuse both here, before a byte is written.
  if (batch.relation.size() > kMaxRelationNameBytes) {
    return InvalidArgumentError(
        StrCat("wal '", path_, "': relation name of ",
               batch.relation.size(), " bytes exceeds the ",
               kMaxRelationNameBytes, "-byte limit"));
  }
  if (batch.arity == 0) {
    return InvalidArgumentError(
        StrCat("wal '", path_, "': batch for relation '", batch.relation,
               "' has arity 0"));
  }
  std::string payload = EncodeBatch(batch);
  if (payload.size() > kMaxRecordPayload) {
    // Refusing here is what lets ReadWal treat an over-cap length field as
    // definitive corruption rather than a plausibly torn append.
    return InvalidArgumentError(
        StrCat("wal '", path_, "': batch encodes to ", payload.size(),
               " bytes, above the ", kMaxRecordPayload, "-byte record cap"));
  }
  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, Crc32c(payload));
  record.append(payload);
  SEPREC_RETURN_IF_ERROR(
      WriteAllFd(fd_, record.data(), record.size(), path_));
  offset_ += record.size();
  if (policy_ == FsyncPolicy::kAlways) {
    SEPREC_RETURN_IF_ERROR(Failpoints::Check("wal.fsync"));
    SEPREC_RETURN_IF_ERROR(FsyncFd(fd_, path_));
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (policy_ == FsyncPolicy::kOff) return Status::OK();
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("wal.fsync"));
  return FsyncFd(fd_, path_);
}

StatusOr<WalReadResult> ReadWal(const std::string& path) {
  std::string bytes;
  {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return NotFoundError(
          StrCat("wal '", path, "': open failed (errno ", errno, ")"));
    }
    char chunk[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return InternalError(
            StrCat("wal '", path, "': read failed (errno ", errno, ")"));
      }
      if (n == 0) break;
      bytes.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
  }

  WalReadResult result;
  result.file_size = bytes.size();
  if (bytes.size() < kWalHeaderSize) {
    // Shorter than the magic: either a zero-byte file from a crash inside
    // creation, or a partially written header. Both are a torn tail at
    // offset 0 — there can be no records to lose.
    result.valid_end = 0;
    result.tail = WalTail::kTorn;
    result.detail = StrCat("file shorter than the ", kWalHeaderSize,
                           "-byte header (", bytes.size(), " bytes)");
    return result;
  }
  if (std::memcmp(bytes.data(), kWalMagic, kWalHeaderSize) != 0) {
    result.valid_end = 0;
    result.tail = WalTail::kCorrupt;
    result.detail = "bad magic: not a seprec WAL";
    return result;
  }

  uint64_t off = kWalHeaderSize;
  size_t index = 0;
  while (off < bytes.size()) {
    const uint64_t remaining = bytes.size() - off;
    if (remaining < kRecordHeaderSize) {
      result.tail = WalTail::kTorn;
      result.detail = StrCat("record ", index, " at offset ", off,
                             ": header cut short (", remaining,
                             " of 8 bytes)");
      break;
    }
    Cursor c{reinterpret_cast<const unsigned char*>(bytes.data()) + off,
             kRecordHeaderSize};
    uint32_t len = 0;
    uint32_t crc = 0;
    c.U32(&len);
    c.U32(&crc);
    const uint64_t body = off + kRecordHeaderSize;
    if (len > kMaxRecordPayload) {
      // Append refuses to write a payload above the cap, and a torn write
      // only ever leaves a prefix of real bytes — so a length field this
      // large cannot be an in-flight record. It is damage, wherever it
      // sits, and strict recovery must refuse rather than truncate here.
      result.tail = WalTail::kCorrupt;
      result.detail =
          StrCat("record ", index, " at offset ", off,
                 ": impossible payload length ", len, " (cap ",
                 kMaxRecordPayload, " bytes)");
      break;
    }
    if (body + len > bytes.size()) {
      // A plausible length with the payload missing its tail: exactly the
      // shape a crash mid-append leaves. (Mid-log framing damage that
      // fakes a plausible length is indistinguishable from this.)
      result.tail = WalTail::kTorn;
      result.detail =
          StrCat("record ", index, " at offset ", off, ": payload of ", len,
                 " bytes runs past end of file (", bytes.size(), " bytes)");
      break;
    }
    std::string payload = bytes.substr(body, len);
    TupleBatch batch;
    const bool crc_ok = Crc32c(payload) == crc;
    const bool decode_ok = crc_ok && DecodeBatch(payload, &batch);
    if (!crc_ok || !decode_ok) {
      const bool last = body + len == bytes.size();
      result.tail = last ? WalTail::kTorn : WalTail::kCorrupt;
      result.detail = StrCat(
          "record ", index, " at offset ", off, ": ",
          crc_ok ? "payload does not decode" : "checksum mismatch",
          last ? " on the final record (torn append)"
               : StrCat(" with ", bytes.size() - body - len,
                        " byte(s) of later records after it"));
      break;
    }
    result.records.push_back(WalRecord{std::move(batch), off});
    off = body + len;
    result.valid_end = off;
    ++index;
  }
  if (result.valid_end < kWalHeaderSize) result.valid_end = kWalHeaderSize;
  if (result.tail == WalTail::kClean && result.valid_end != bytes.size()) {
    // Unreachable by construction (the loop only exits clean at EOF), but
    // keep the invariant explicit for the recovery layer.
    result.tail = WalTail::kTorn;
    result.detail = "trailing bytes after the last record";
  }
  return result;
}

Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return InternalError(
        StrCat("'", path, "': open for fsync failed (errno ", errno, ")"));
  }
  Status s = FsyncFd(fd, path);
  ::close(fd);
  return s;
}

Status FsyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return InternalError(
        StrCat("'", dir, "': open for fsync failed (errno ", errno, ")"));
  }
  Status s = FsyncFd(fd, dir);
  ::close(fd);
  return s;
}

Status DurableRename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return InternalError(StrCat("rename '", from, "' -> '", to,
                                "' failed (errno ", errno, ")"));
  }
  return FsyncParentDir(to);
}

Status TruncateWal(const std::string& path, uint64_t size) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("wal.truncate"));
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return InternalError(
        StrCat("wal '", path, "': open failed (errno ", errno, ")"));
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return InternalError(
        StrCat("wal '", path, "': ftruncate failed (errno ", errno, ")"));
  }
  Status s = FsyncFd(fd, path);
  ::close(fd);
  return s;
}

}  // namespace seprec
