#include "serve/delta.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ckpt/io.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace cgkgr {
namespace serve {

namespace {

/// Section name of the delta record stream inside the ckpt frame.
const char kDeltaSection[] = "serve-snapshot-delta";

/// splitmix64 finalizer: mixes one 64-bit word into the fingerprint.
uint64_t Mix(uint64_t h, uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 27);
}

/// Crc32 of one user's score row and seen list into `digest`.
void DigestUser(const Snapshot& snapshot, int64_t user,
                SnapshotDigest* digest) {
  const size_t u = static_cast<size_t>(user);
  digest->score_crcs[u] =
      ckpt::Crc32(snapshot.UserScores(user),
                  static_cast<size_t>(snapshot.num_items) * sizeof(float));
  const std::vector<int64_t>& seen = snapshot.seen[u];
  digest->seen_crcs[u] =
      ckpt::Crc32(seen.data(), seen.size() * sizeof(int64_t));
}

}  // namespace

SnapshotDigest DigestSnapshot(const Snapshot& snapshot) {
  CGKGR_CHECK(ValidateSnapshot(snapshot, "DigestSnapshot").ok());
  SnapshotDigest digest;
  digest.num_items = snapshot.num_items;
  digest.score_crcs.resize(static_cast<size_t>(snapshot.num_users));
  digest.seen_crcs.resize(static_cast<size_t>(snapshot.num_users));
  for (int64_t user = 0; user < snapshot.num_users; ++user) {
    DigestUser(snapshot, user, &digest);
  }
  return digest;
}

uint64_t SnapshotFingerprint(const SnapshotDigest& digest) {
  CGKGR_CHECK(digest.score_crcs.size() == digest.seen_crcs.size());
  // The CRC of the whole row-major matrix, folded from its equal-length
  // rows: one operator, then one GF(2) multiply per row.
  const uint32_t row_op = ckpt::Crc32CombineOp(
      static_cast<uint64_t>(digest.num_items) * sizeof(float));
  uint32_t scores_crc = 0;  // Crc32 of zero bytes
  for (const uint32_t row_crc : digest.score_crcs) {
    scores_crc = ckpt::Crc32Combine(scores_crc, row_crc, row_op);
  }
  uint64_t h = 0xC6A4A7935BD1E995ULL;
  h = Mix(h, static_cast<uint64_t>(digest.score_crcs.size()));
  h = Mix(h, static_cast<uint64_t>(digest.num_items));
  h = Mix(h, scores_crc);
  for (const uint32_t seen_crc : digest.seen_crcs) h = Mix(h, seen_crc);
  return h;
}

uint64_t SnapshotFingerprint(const Snapshot& snapshot) {
  return SnapshotFingerprint(DigestSnapshot(snapshot));
}

Result<SnapshotDelta> BuildDelta(const Snapshot& base,
                                 const Snapshot& target) {
  CGKGR_RETURN_NOT_OK(ValidateSnapshot(base, "BuildDelta: base"));
  CGKGR_RETURN_NOT_OK(ValidateSnapshot(target, "BuildDelta: target"));
  if (base.num_users != target.num_users ||
      base.num_items != target.num_items) {
    return Status::InvalidArgument(StrFormat(
        "BuildDelta: dimension mismatch (base %lld x %lld, target "
        "%lld x %lld) — a delta cannot resize; publish a full snapshot",
        static_cast<long long>(base.num_users),
        static_cast<long long>(base.num_items),
        static_cast<long long>(target.num_users),
        static_cast<long long>(target.num_items)));
  }
  SnapshotDelta delta;
  delta.model_name = target.model_name;
  delta.dataset_name = target.dataset_name;
  delta.num_users = target.num_users;
  delta.num_items = target.num_items;
  // Rows the loop skips are byte-equal to the base's, so they keep the
  // base's CRCs in the target digest.
  const SnapshotDigest base_digest = DigestSnapshot(base);
  SnapshotDigest target_digest = base_digest;
  const size_t row_bytes =
      static_cast<size_t>(target.num_items) * sizeof(float);
  for (int64_t user = 0; user < target.num_users; ++user) {
    const size_t u = static_cast<size_t>(user);
    // memcmp, not float compare: the contract is bit-exactness, and NaN or
    // signed-zero differences must count as changes.
    const bool scores_changed =
        std::memcmp(base.UserScores(user), target.UserScores(user),
                    row_bytes) != 0;
    const bool seen_changed = base.seen[u] != target.seen[u];
    if (!scores_changed && !seen_changed) continue;
    DeltaRow row;
    row.user = user;
    row.scores.assign(target.UserScores(user),
                      target.UserScores(user) + target.num_items);
    row.seen = target.seen[u];
    delta.rows.push_back(std::move(row));
    DigestUser(target, user, &target_digest);
  }
  delta.base_fingerprint = SnapshotFingerprint(base_digest);
  delta.target_fingerprint = SnapshotFingerprint(target_digest);
  return delta;
}

Result<PatchedSnapshot> ApplyDelta(const Snapshot& base,
                                   const SnapshotDigest& base_digest,
                                   const SnapshotDelta& delta) {
  if (base.num_users != delta.num_users ||
      base.num_items != delta.num_items) {
    return Status::InvalidArgument(StrFormat(
        "ApplyDelta: dimension mismatch (base %lld x %lld, delta "
        "%lld x %lld)",
        static_cast<long long>(base.num_users),
        static_cast<long long>(base.num_items),
        static_cast<long long>(delta.num_users),
        static_cast<long long>(delta.num_items)));
  }
  CGKGR_CHECK(base_digest.num_items == base.num_items &&
              base_digest.score_crcs.size() ==
                  static_cast<size_t>(base.num_users));
  const uint64_t base_fp = SnapshotFingerprint(base_digest);
  if (base_fp != delta.base_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "ApplyDelta: base fingerprint %llx does not match the delta's "
        "recorded base %llx — the delta was diffed against different bits",
        static_cast<unsigned long long>(base_fp),
        static_cast<unsigned long long>(delta.base_fingerprint)));
  }
  PatchedSnapshot patched{base, base_digest};
  Snapshot& out = patched.snapshot;
  out.model_name = delta.model_name;
  out.dataset_name = delta.dataset_name;
  for (const DeltaRow& row : delta.rows) {
    if (row.user < 0 || row.user >= out.num_users) {
      return Status::InvalidArgument(StrFormat(
          "ApplyDelta: row user %lld out of range [0, %lld)",
          static_cast<long long>(row.user),
          static_cast<long long>(out.num_users)));
    }
    if (row.scores.size() != static_cast<size_t>(out.num_items)) {
      return Status::InvalidArgument(StrFormat(
          "ApplyDelta: row for user %lld has %zu scores, want %lld",
          static_cast<long long>(row.user), row.scores.size(),
          static_cast<long long>(out.num_items)));
    }
    std::copy(row.scores.begin(), row.scores.end(),
              out.scores.begin() +
                  static_cast<size_t>(row.user * out.num_items));
    out.seen[static_cast<size_t>(row.user)] = row.seen;
    // From the bytes now in the output, not from the delta's copy: the
    // check below then witnesses what will actually be served.
    DigestUser(out, row.user, &patched.digest);
  }
  const uint64_t patched_fp = SnapshotFingerprint(patched.digest);
  if (patched_fp != delta.target_fingerprint) {
    return Status::Internal(StrFormat(
        "ApplyDelta: patched fingerprint %llx does not match the delta's "
        "recorded target %llx — apply is not bit-exact",
        static_cast<unsigned long long>(patched_fp),
        static_cast<unsigned long long>(delta.target_fingerprint)));
  }
  return patched;
}

Status SaveDelta(const SnapshotDelta& delta, const std::string& path) {
  ckpt::Writer writer;
  writer.BeginSection(kDeltaSection);
  writer.WriteString(delta.model_name);
  writer.WriteString(delta.dataset_name);
  writer.WriteI64(delta.num_users);
  writer.WriteI64(delta.num_items);
  writer.WriteU64(delta.base_fingerprint);
  writer.WriteU64(delta.target_fingerprint);
  writer.WriteI64(static_cast<int64_t>(delta.rows.size()));
  for (const DeltaRow& row : delta.rows) {
    writer.WriteI64(row.user);
    writer.WriteFloats(row.scores.data(),
                       static_cast<int64_t>(row.scores.size()));
    writer.WriteI64s(row.seen);
  }
  return writer.Commit(path);
}

Result<SnapshotDelta> LoadDelta(const std::string& path) {
  Result<ckpt::Reader> opened = ckpt::Reader::Open(path);
  if (!opened.ok()) return opened.status();
  ckpt::Reader reader = std::move(opened).value();
  CGKGR_RETURN_NOT_OK(reader.ExpectSection(kDeltaSection));

  SnapshotDelta delta;
  CGKGR_RETURN_NOT_OK(reader.ReadString(&delta.model_name));
  CGKGR_RETURN_NOT_OK(reader.ReadString(&delta.dataset_name));
  CGKGR_RETURN_NOT_OK(reader.ReadI64(&delta.num_users));
  CGKGR_RETURN_NOT_OK(reader.ReadI64(&delta.num_items));
  CGKGR_RETURN_NOT_OK(reader.ReadU64(&delta.base_fingerprint));
  CGKGR_RETURN_NOT_OK(reader.ReadU64(&delta.target_fingerprint));
  if (delta.num_users < 0 || delta.num_items < 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: negative delta dimensions (%lld x %lld)", path.c_str(),
        static_cast<long long>(delta.num_users),
        static_cast<long long>(delta.num_items)));
  }
  int64_t num_rows = 0;
  CGKGR_RETURN_NOT_OK(reader.ReadI64(&num_rows));
  if (num_rows < 0 || num_rows > delta.num_users) {
    return Status::InvalidArgument(StrFormat(
        "%s: delta row count %lld outside [0, %lld]", path.c_str(),
        static_cast<long long>(num_rows),
        static_cast<long long>(delta.num_users)));
  }
  int64_t prev_user = -1;
  for (int64_t r = 0; r < num_rows; ++r) {
    DeltaRow row;
    CGKGR_RETURN_NOT_OK(reader.ReadI64(&row.user));
    CGKGR_RETURN_NOT_OK(reader.ReadFloats(&row.scores));
    CGKGR_RETURN_NOT_OK(reader.ReadI64s(&row.seen));
    if (row.user <= prev_user || row.user >= delta.num_users) {
      return Status::InvalidArgument(StrFormat(
          "%s: delta row users must strictly ascend in [0, %lld); got "
          "%lld after %lld",
          path.c_str(), static_cast<long long>(delta.num_users),
          static_cast<long long>(row.user),
          static_cast<long long>(prev_user)));
    }
    if (row.scores.size() != static_cast<size_t>(delta.num_items)) {
      return Status::InvalidArgument(StrFormat(
          "%s: delta row for user %lld has %zu scores, want %lld",
          path.c_str(), static_cast<long long>(row.user), row.scores.size(),
          static_cast<long long>(delta.num_items)));
    }
    CGKGR_RETURN_NOT_OK(ValidateSeenList(row.seen, delta.num_items, path));
    prev_user = row.user;
    delta.rows.push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        path + ": trailing records after delta — oversized payload");
  }
  return delta;
}

}  // namespace serve
}  // namespace cgkgr
