#include "ckpt/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace cgkgr {
namespace ckpt {

namespace {

/// Record type tags. The values are part of the on-disk format; append new
/// tags, never renumber.
enum Tag : uint8_t {
  kTagU64 = 1,
  kTagI64 = 2,
  kTagF32 = 3,
  kTagF64 = 4,
  kTagBool = 5,
  kTagString = 6,
  kTagFloats = 7,
  kTagDoubles = 8,
  kTagI64s = 9,
  kTagTensor = 10,
  kTagSection = 11,
};

const char* TagName(uint8_t tag) {
  switch (tag) {
    case kTagU64: return "u64";
    case kTagI64: return "i64";
    case kTagF32: return "f32";
    case kTagF64: return "f64";
    case kTagBool: return "bool";
    case kTagString: return "string";
    case kTagFloats: return "floats";
    case kTagDoubles: return "doubles";
    case kTagI64s: return "i64s";
    case kTagTensor: return "tensor";
    case kTagSection: return "section";
    default: return "unknown";
  }
}

/// Frame layout constants; see io.h for the spec.
constexpr size_t kHeaderSize = sizeof(kCkptMagic) + sizeof(uint32_t);
constexpr size_t kFooterSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(kCkptTail);

void AppendRaw(std::string* buf, const void* data, size_t size) {
  buf->append(static_cast<const char*>(data), size);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Syncs the directory entry so the rename itself is durable. Best-effort:
/// some filesystems reject directory fsync; the rename is already atomic.
void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// POSIX write-all loop (write may be partial).
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      return Status::IOError("write failed for " + path + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// The reflected IEEE polynomial: bit 31 - k holds the coefficient of x^k.
constexpr uint32_t kCrcPoly = 0xEDB88320u;
/// The polynomial 1 (x^0) in that bit order.
constexpr uint32_t kCrcOne = 1u << 31;

/// Slice-by-8 lookup tables. table[0] is the bytewise CRC table;
/// table[k][b] is the register after byte b followed by k zero bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& CrcTables() {
  static const Crc32Tables kTables = [] {
    Crc32Tables tables{};
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t c = b;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? kCrcPoly ^ (c >> 1) : c >> 1;
      }
      tables[0][b] = c;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        const uint32_t prev = tables[k - 1][b];
        tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
      }
    }
    return tables;
  }();
  return kTables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// a·b mod P over GF(2), both in the reflected bit order.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t bit = kCrcOne; bit != 0; bit >>= 1) {
    if ((a & bit) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;  // b·x mod P
  }
  return product;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const Crc32Tables& table = CrcTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  // Slice-by-8: one round folds eight bytes through eight table lookups
  // that do not depend on each other, instead of eight dependent bytewise
  // steps. The words are assembled little-endian, the order in which the
  // bytewise loop consumes them, so the result is host-independent.
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = table[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32CombineOp(uint64_t size) {
  // x^(8·size) by square-and-multiply over the bits of `size`, starting
  // from x^8 (one byte).
  uint32_t op = kCrcOne;
  uint32_t power = kCrcOne >> 8;
  for (; size != 0; size >>= 1) {
    if ((size & 1u) != 0) op = MultModP(op, power);
    power = MultModP(power, power);
  }
  return op;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint32_t op) {
  return MultModP(op, crc_a) ^ crc_b;
}

void Writer::BeginSection(const std::string& name) {
  const uint8_t tag = kTagSection;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t size = name.size();
  AppendRaw(&payload_, &size, sizeof(size));
  payload_.append(name);
}

void Writer::WriteU64(uint64_t value) {
  const uint8_t tag = kTagU64;
  AppendRaw(&payload_, &tag, 1);
  AppendRaw(&payload_, &value, sizeof(value));
}

void Writer::WriteI64(int64_t value) {
  const uint8_t tag = kTagI64;
  AppendRaw(&payload_, &tag, 1);
  AppendRaw(&payload_, &value, sizeof(value));
}

void Writer::WriteF32(float value) {
  const uint8_t tag = kTagF32;
  AppendRaw(&payload_, &tag, 1);
  AppendRaw(&payload_, &value, sizeof(value));
}

void Writer::WriteF64(double value) {
  const uint8_t tag = kTagF64;
  AppendRaw(&payload_, &tag, 1);
  AppendRaw(&payload_, &value, sizeof(value));
}

void Writer::WriteBool(bool value) {
  const uint8_t tag = kTagBool;
  AppendRaw(&payload_, &tag, 1);
  const uint8_t byte = value ? 1 : 0;
  AppendRaw(&payload_, &byte, 1);
}

void Writer::WriteString(const std::string& value) {
  const uint8_t tag = kTagString;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t size = value.size();
  AppendRaw(&payload_, &size, sizeof(size));
  payload_.append(value);
}

void Writer::WriteFloats(const float* data, int64_t count) {
  CGKGR_CHECK(count >= 0 && (data != nullptr || count == 0));
  const uint8_t tag = kTagFloats;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t size = static_cast<uint64_t>(count);
  AppendRaw(&payload_, &size, sizeof(size));
  AppendRaw(&payload_, data, static_cast<size_t>(count) * sizeof(float));
}

void Writer::WriteDoubles(const std::vector<double>& values) {
  const uint8_t tag = kTagDoubles;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t size = values.size();
  AppendRaw(&payload_, &size, sizeof(size));
  AppendRaw(&payload_, values.data(), values.size() * sizeof(double));
}

void Writer::WriteI64s(const std::vector<int64_t>& values) {
  const uint8_t tag = kTagI64s;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t size = values.size();
  AppendRaw(&payload_, &size, sizeof(size));
  AppendRaw(&payload_, values.data(), values.size() * sizeof(int64_t));
}

void Writer::WriteTensor(const tensor::Tensor& value) {
  const uint8_t tag = kTagTensor;
  AppendRaw(&payload_, &tag, 1);
  const uint64_t rank = static_cast<uint64_t>(value.rank());
  AppendRaw(&payload_, &rank, sizeof(rank));
  for (int d = 0; d < value.rank(); ++d) {
    const int64_t dim = value.dim(d);
    AppendRaw(&payload_, &dim, sizeof(dim));
  }
  AppendRaw(&payload_, value.data(),
            static_cast<size_t>(value.size()) * sizeof(float));
}

std::string Writer::FramedBytes() const {
  std::string framed;
  framed.reserve(kHeaderSize + payload_.size() + kFooterSize);
  AppendRaw(&framed, kCkptMagic, sizeof(kCkptMagic));
  const uint32_t version = kCkptVersion;
  AppendRaw(&framed, &version, sizeof(version));
  framed.append(payload_);
  const uint64_t payload_size = payload_.size();
  AppendRaw(&framed, &payload_size, sizeof(payload_size));
  // CRC covers header + payload (everything before the footer).
  const uint32_t crc = Crc32(framed.data(), kHeaderSize + payload_.size());
  AppendRaw(&framed, &crc, sizeof(crc));
  AppendRaw(&framed, kCkptTail, sizeof(kCkptTail));
  return framed;
}

Status Writer::Commit(const std::string& path) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static obs::Counter* writes_total =
      registry.GetCounter("ckpt_writes_total");
  static obs::Counter* write_bytes_total =
      registry.GetCounter("ckpt_write_bytes_total");
  static obs::Counter* write_failures_total =
      registry.GetCounter("ckpt_write_failures_total");
  static obs::Histogram* commit_micros =
      registry.GetHistogram("ckpt_commit_micros");
  WallTimer timer;

  const std::string framed = FramedBytes();
  const std::string tmp =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  Status status = Status::OK();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    status = Status::IOError("cannot open " + tmp + " for writing: " +
                             std::strerror(errno));
  } else {
    status = WriteAll(fd, framed.data(), framed.size(), tmp);
    if (status.ok() && ::fsync(fd) != 0) {
      status = Status::IOError("fsync failed for " + tmp + ": " +
                               std::strerror(errno));
    }
    ::close(fd);
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("rename " + tmp + " -> " + path + " failed: " +
                             std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    write_failures_total->Increment();
    return status;
  }
  FsyncDir(DirName(path));
  writes_total->Increment();
  write_bytes_total->Increment(static_cast<int64_t>(framed.size()));
  commit_micros->Record(timer.ElapsedMillis() * 1e3);
  return Status::OK();
}

Result<Reader> Reader::Open(const std::string& path) {
  Result<std::string> framed = ReadFileToString(path);
  if (!framed.ok()) return framed.status();
  return FromFramedBytes(std::move(framed).value(), path);
}

Result<Reader> Reader::FromFramedBytes(const std::string& framed,
                                       const std::string& origin) {
  if (framed.size() < kHeaderSize + kFooterSize) {
    return Status::IOError(StrFormat(
        "%s: truncated checkpoint (%zu bytes, frame needs at least %zu)",
        origin.c_str(), framed.size(), kHeaderSize + kFooterSize));
  }
  if (std::memcmp(framed.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::InvalidArgument(origin + ": bad checkpoint magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, framed.data() + sizeof(kCkptMagic), sizeof(version));
  if (version != kCkptVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported checkpoint version %u (expected %u)",
                  origin.c_str(), version, kCkptVersion));
  }
  const char* footer = framed.data() + framed.size() - kFooterSize;
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, footer, sizeof(payload_size));
  if (payload_size != framed.size() - kHeaderSize - kFooterSize) {
    return Status::IOError(StrFormat(
        "%s: checkpoint size mismatch (footer says %llu payload bytes, file "
        "has %zu) — truncated or trailing garbage",
        origin.c_str(), static_cast<unsigned long long>(payload_size),
        framed.size() - kHeaderSize - kFooterSize));
  }
  if (std::memcmp(footer + sizeof(uint64_t) + sizeof(uint32_t), kCkptTail,
                  sizeof(kCkptTail)) != 0) {
    return Status::IOError(origin + ": checkpoint footer corrupt (bad tail)");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, footer + sizeof(uint64_t), sizeof(stored_crc));
  const uint32_t actual_crc =
      Crc32(framed.data(), kHeaderSize + static_cast<size_t>(payload_size));
  if (stored_crc != actual_crc) {
    return Status::IOError(StrFormat(
        "%s: checkpoint CRC mismatch (stored %08x, computed %08x)",
        origin.c_str(), stored_crc, actual_crc));
  }
  Reader reader;
  reader.origin_ = origin;
  reader.payload_.assign(framed.data() + kHeaderSize,
                         static_cast<size_t>(payload_size));
  reader.pos_ = 0;
  return reader;
}

Status Reader::ReadRaw(void* out, size_t size, const char* what) {
  if (payload_.size() - pos_ < size) {
    return Status::IOError(StrFormat(
        "%s: truncated record: %zu bytes left at offset %zu, %s needs %zu",
        origin_.c_str(), payload_.size() - pos_, pos_, what, size));
  }
  // An empty vector's data() may be null, and memcpy to null is UB even for
  // zero bytes.
  if (size == 0) return Status::OK();
  std::memcpy(out, payload_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

Status Reader::ReadTag(uint8_t expected, const char* what) {
  uint8_t tag = 0;
  CGKGR_RETURN_NOT_OK(ReadRaw(&tag, 1, what));
  if (tag != expected) {
    return Status::InvalidArgument(StrFormat(
        "%s: record type mismatch at offset %zu: expected %s, found %s — "
        "reader out of sync with writer", origin_.c_str(), pos_ - 1,
        TagName(expected), TagName(tag)));
  }
  return Status::OK();
}

Status Reader::ReadCount(size_t elem_size, const char* what, uint64_t* count) {
  CGKGR_RETURN_NOT_OK(ReadRaw(count, sizeof(*count), what));
  if (*count > (payload_.size() - pos_) / elem_size) {
    return Status::IOError(StrFormat(
        "%s: oversized %s record: %llu elements but only %zu payload bytes "
        "remain", origin_.c_str(), what,
        static_cast<unsigned long long>(*count), payload_.size() - pos_));
  }
  return Status::OK();
}

Status Reader::ExpectSection(const std::string& name) {
  CGKGR_RETURN_NOT_OK(ReadTag(kTagSection, "section"));
  uint64_t size = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(1, "section name", &size));
  std::string found(payload_.data() + pos_, static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  if (found != name) {
    return Status::InvalidArgument(
        StrFormat("%s: expected section \"%s\", found \"%s\"",
                  origin_.c_str(), name.c_str(), found.c_str()));
  }
  return Status::OK();
}

Status Reader::ReadU64(uint64_t* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagU64, "u64"));
  return ReadRaw(value, sizeof(*value), "u64");
}

Status Reader::ReadI64(int64_t* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagI64, "i64"));
  return ReadRaw(value, sizeof(*value), "i64");
}

Status Reader::ReadF32(float* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagF32, "f32"));
  return ReadRaw(value, sizeof(*value), "f32");
}

Status Reader::ReadF64(double* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagF64, "f64"));
  return ReadRaw(value, sizeof(*value), "f64");
}

Status Reader::ReadBool(bool* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagBool, "bool"));
  uint8_t byte = 0;
  CGKGR_RETURN_NOT_OK(ReadRaw(&byte, 1, "bool"));
  if (byte > 1) {
    return Status::InvalidArgument(
        StrFormat("%s: corrupt bool record (value %u)", origin_.c_str(),
                  static_cast<unsigned>(byte)));
  }
  *value = byte == 1;
  return Status::OK();
}

Status Reader::ReadString(std::string* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagString, "string"));
  uint64_t size = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(1, "string", &size));
  value->assign(payload_.data() + pos_, static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  return Status::OK();
}

Status Reader::ReadFloats(std::vector<float>* values) {
  CGKGR_CHECK(values != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagFloats, "floats"));
  uint64_t count = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(sizeof(float), "floats", &count));
  values->resize(static_cast<size_t>(count));
  return ReadRaw(values->data(), static_cast<size_t>(count) * sizeof(float),
                 "floats");
}

Status Reader::ReadDoubles(std::vector<double>* values) {
  CGKGR_CHECK(values != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagDoubles, "doubles"));
  uint64_t count = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(sizeof(double), "doubles", &count));
  values->resize(static_cast<size_t>(count));
  return ReadRaw(values->data(), static_cast<size_t>(count) * sizeof(double),
                 "doubles");
}

Status Reader::ReadI64s(std::vector<int64_t>* values) {
  CGKGR_CHECK(values != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagI64s, "i64s"));
  uint64_t count = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(sizeof(int64_t), "i64s", &count));
  values->resize(static_cast<size_t>(count));
  return ReadRaw(values->data(), static_cast<size_t>(count) * sizeof(int64_t),
                 "i64s");
}

Status Reader::ReadTensor(tensor::Tensor* value) {
  CGKGR_CHECK(value != nullptr);
  CGKGR_RETURN_NOT_OK(ReadTag(kTagTensor, "tensor"));
  uint64_t rank = 0;
  CGKGR_RETURN_NOT_OK(ReadCount(sizeof(int64_t), "tensor shape", &rank));
  std::vector<int64_t> shape(static_cast<size_t>(rank));
  CGKGR_RETURN_NOT_OK(ReadRaw(shape.data(), shape.size() * sizeof(int64_t),
                              "tensor shape"));
  int64_t volume = 1;
  for (const int64_t dim : shape) {
    if (dim < 0 ||
        (dim > 0 && volume > static_cast<int64_t>(payload_.size()) / dim)) {
      return Status::IOError(origin_ + ": corrupt tensor shape");
    }
    volume *= dim;
  }
  if (static_cast<uint64_t>(volume) >
      (payload_.size() - pos_) / sizeof(float)) {
    return Status::IOError(StrFormat(
        "%s: oversized tensor record: shape wants %lld floats but only %zu "
        "payload bytes remain", origin_.c_str(),
        static_cast<long long>(volume), payload_.size() - pos_));
  }
  tensor::Tensor result(shape);
  CGKGR_RETURN_NOT_OK(ReadRaw(
      result.data(), static_cast<size_t>(volume) * sizeof(float), "tensor"));
  *value = std::move(result);
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  Status status = Status::OK();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + " for writing: " +
                           std::strerror(errno));
  }
  status = WriteAll(fd, contents.data(), contents.size(), tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IOError("fsync failed for " + tmp + ": " +
                             std::strerror(errno));
  }
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("rename " + tmp + " -> " + path + " failed: " +
                             std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  FsyncDir(DirName(path));
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return contents;
}

Result<std::vector<std::string>> ListFilesWithSuffixes(
    const std::string& dir, const std::vector<std::string>& suffixes) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::NotFound("cannot open directory " + dir + ": " +
                            std::strerror(errno));
  }
  std::vector<std::string> names;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    for (const std::string& suffix : suffixes) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        names.push_back(name);
        break;
      }
    }
  }
  ::closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<std::string>> ListFilesWithSuffix(
    const std::string& dir, const std::string& suffix) {
  return ListFilesWithSuffixes(dir, {suffix});
}

}  // namespace ckpt
}  // namespace cgkgr
