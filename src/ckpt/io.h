#ifndef CGKGR_CKPT_IO_H_
#define CGKGR_CKPT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace cgkgr {
namespace ckpt {

/// On-disk framing of every checkpoint artifact (model state, trainer
/// checkpoints, serve snapshots). See docs/checkpointing.md for the spec.
///
///   [magic "CGKGRCK1" 8B][version u32][payload][footer]
///   footer = [payload_size u64][crc32 u32][tail "CGKGREND" 8B]
///
/// The CRC covers magic + version + payload, so a flipped bit anywhere in
/// the file (including the header) fails validation; the payload-size and
/// tail-magic checks catch truncation and appended garbage before the CRC
/// is even computed. The payload itself is a sequence of type-tagged
/// records (Writer/Reader below), so a reader that drifts out of sync with
/// the writer surfaces a typed Status instead of consuming garbage.
///
/// Byte order is native: checkpoints are same-machine restart artifacts,
/// not portable interchange files.
inline constexpr char kCkptMagic[8] = {'C', 'G', 'K', 'G', 'R', 'C', 'K', '1'};
inline constexpr char kCkptTail[8] = {'C', 'G', 'K', 'G', 'R', 'E', 'N', 'D'};
inline constexpr uint32_t kCkptVersion = 1;

/// IEEE 802.3 CRC-32 (the zlib polynomial, reflected 0xEDB88320) over
/// `size` bytes, computed slice-by-8: the bytewise algorithm's values at
/// several times its throughput. Exposed so fault-injection tests can
/// forge and verify footers.
uint32_t Crc32(const void* data, size_t size);

/// The operator x^(8·size) mod P of the CRC polynomial, which Crc32Combine
/// applies to the first part's CRC. It depends only on the second part's
/// length, so folding many equal-length parts computes it once.
uint32_t Crc32CombineOp(uint64_t size);

/// Crc32(A‖B) from crc_a = Crc32(A), crc_b = Crc32(B) and
/// op = Crc32CombineOp(|B|), without touching the bytes: zlib's
/// crc32_combine (https://github.com/madler/zlib) with the operator hoisted.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint32_t op);

/// Serializes a stream of type-tagged records into an in-memory payload and
/// publishes it atomically: `Commit(path)` stages the framed bytes to
/// `<path>.tmp.<pid>`, fsyncs, renames over `path`, and fsyncs the parent
/// directory. A crash at any point leaves either the old file or the new
/// one — never a torn mix.
class Writer {
 public:
  Writer() = default;

  /// Opens a named section. Readers consume it with ExpectSection(), which
  /// turns writer/reader schema drift into a descriptive error.
  void BeginSection(const std::string& name);

  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteBool(bool value);
  void WriteString(const std::string& value);
  void WriteFloats(const float* data, int64_t count);
  void WriteDoubles(const std::vector<double>& values);
  void WriteI64s(const std::vector<int64_t>& values);
  /// Shape + raw float data; round-trips bit-exactly.
  void WriteTensor(const tensor::Tensor& value);

  /// The accumulated record payload (no framing). Byte-compare two payloads
  /// to assert two states are bit-identical.
  const std::string& payload() const { return payload_; }

  /// Frames payload() with magic/version/CRC footer and atomically
  /// publishes it at `path` (temp file + fsync + rename + directory fsync).
  Status Commit(const std::string& path) const;

  /// The framed file image Commit() writes; exposed for tests that corrupt
  /// bytes in memory before writing them.
  std::string FramedBytes() const;

 private:
  std::string payload_;
};

/// Validating reader over a committed checkpoint file. `Open` verifies the
/// full frame (magic, version, size, tail, CRC) before any record is
/// decoded; every Read* then checks the type tag and remaining bounds and
/// returns a Status on mismatch. No corruption path crashes.
class Reader {
 public:
  /// An empty reader (every read fails); exists so Result<Reader> has a
  /// default state. Use Open() or FromFramedBytes().
  Reader() = default;

  /// Reads and validates the framed file at `path`.
  static Result<Reader> Open(const std::string& path);

  /// Validates an in-memory framed image (as produced by
  /// Writer::FramedBytes); used by tests and by readers of already-loaded
  /// buffers.
  static Result<Reader> FromFramedBytes(const std::string& framed,
                                        const std::string& origin = "<memory>");

  Status ExpectSection(const std::string& name);

  Status ReadU64(uint64_t* value);
  Status ReadI64(int64_t* value);
  Status ReadF32(float* value);
  Status ReadF64(double* value);
  Status ReadBool(bool* value);
  Status ReadString(std::string* value);
  Status ReadFloats(std::vector<float>* values);
  Status ReadDoubles(std::vector<double>* values);
  Status ReadI64s(std::vector<int64_t>* values);
  /// Reads a tensor record into a freshly shaped tensor.
  Status ReadTensor(tensor::Tensor* value);

  /// True once every payload byte has been consumed.
  bool AtEnd() const { return pos_ == payload_.size(); }

  /// The validated record payload (no framing).
  const std::string& payload() const { return payload_; }

 private:
  Status ReadTag(uint8_t expected, const char* what);
  Status ReadRaw(void* out, size_t size, const char* what);
  /// Reads a u64 count and validates `count * elem_size` bytes remain.
  Status ReadCount(size_t elem_size, const char* what, uint64_t* count);

  std::string origin_;
  std::string payload_;
  size_t pos_ = 0;
};

/// Atomically replaces `path` with `contents` (same temp + fsync + rename
/// dance as Writer::Commit, without the checkpoint framing). Used for the
/// checkpoint MANIFEST.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Whole-file read (binary).
Result<std::string> ReadFileToString(const std::string& path);

/// Names (not paths) of regular files in `dir` ending with `suffix`,
/// sorted ascending. NotFound when the directory cannot be opened.
Result<std::vector<std::string>> ListFilesWithSuffix(const std::string& dir,
                                                     const std::string& suffix);

/// ListFilesWithSuffix over several suffixes at once, merged into one
/// ascending name order (how the serve engine interleaves `.snap` and
/// `.delta` publications into a single reload timeline).
Result<std::vector<std::string>> ListFilesWithSuffixes(
    const std::string& dir, const std::vector<std::string>& suffixes);

}  // namespace ckpt
}  // namespace cgkgr

#endif  // CGKGR_CKPT_IO_H_
