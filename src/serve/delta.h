#ifndef CGKGR_SERVE_DELTA_H_
#define CGKGR_SERVE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace serve {

/// \file
/// Delta snapshots: the incremental half of the serve reload path.
///
/// A full Snapshot is O(num_users x num_items) floats; retraining rarely
/// moves every user. BuildDelta diffs two full snapshots into only the
/// changed user rows, SaveDelta publishes them as a ckpt-framed `.delta`
/// file, and Engine::ApplyDeltaSnapshot installs a patched copy of the
/// serving snapshot with *row-level* cache invalidation — users whose rows
/// did not change keep their cached Top-K lists across the reload.
///
/// Safety model: a delta is only valid against the exact base it was built
/// from. Both endpoints are pinned by SnapshotFingerprint — ApplyDelta
/// refuses a mismatched base, and re-fingerprints its output against the
/// recorded target so a successful apply is bit-exact with rebuilding the
/// full snapshot (enforced in serve_test). Both checks run on a
/// SnapshotDigest, so they cost O(users + changed rows), not a pass over
/// the matrix.

/// One changed user in a delta: the full replacement score row plus the
/// replacement seen list.
struct DeltaRow {
  int64_t user = 0;
  std::vector<float> scores;  ///< length num_items
  std::vector<int64_t> seen;  ///< sorted train-split item ids
};

/// The diff between two full snapshots with identical dimensions.
struct SnapshotDelta {
  std::string model_name;    ///< of the target snapshot
  std::string dataset_name;  ///< of the target snapshot
  int64_t num_users = 0;
  int64_t num_items = 0;
  /// Fingerprint the base snapshot must match for the delta to apply.
  uint64_t base_fingerprint = 0;
  /// Fingerprint ApplyDelta's output must match (bit-exactness witness).
  uint64_t target_fingerprint = 0;
  /// Changed users, ascending by user id.
  std::vector<DeltaRow> rows;
};

/// The per-user CRC-32s behind SnapshotFingerprint, 8 bytes per user.
/// Patching a digest's changed users and folding it gives the patched
/// snapshot's fingerprint without reading the rows that did not change.
/// A digest lives beside the snapshot it describes (the engine keeps one
/// with its serving snapshot), never inside Snapshot: callers copy a
/// Snapshot and write its rows in place, which would leave a cached digest
/// stale.
struct SnapshotDigest {
  int64_t num_items = 0;
  /// ckpt::Crc32 of each user's score row (num_items floats).
  std::vector<uint32_t> score_crcs;
  /// ckpt::Crc32 of each user's seen list.
  std::vector<uint32_t> seen_crcs;
};

/// Digests every row of `snapshot` from scratch (O(users x items)).
/// CHECK-fails when the score matrix or seen lists disagree with the
/// dimensions; BuildDelta and Engine::Create validate that first.
SnapshotDigest DigestSnapshot(const Snapshot& snapshot);

/// Content fingerprint of a snapshot: CRC32 of the score matrix bytes and
/// every seen list, mixed with the dimensions. The matrix CRC is folded
/// from the digest's row CRCs (ckpt::Crc32Combine), so this overload costs
/// O(users) and equals the from-scratch overload below bit for bit.
uint64_t SnapshotFingerprint(const SnapshotDigest& digest);

/// The from-scratch reference: SnapshotFingerprint(DigestSnapshot(s)).
/// Bit-exact score round-trips (SaveSnapshot/LoadSnapshot store raw IEEE
/// floats) make this stable across publish/load cycles.
uint64_t SnapshotFingerprint(const Snapshot& snapshot);

/// Diffs `base` -> `target` into the changed user rows. Digests `base`
/// once and computes CRCs again only for the target rows it emits (the
/// other rows are byte-equal to the base's). Fails with InvalidArgument
/// when either snapshot's vectors disagree with its dimensions, or when
/// the dimensions differ (a delta cannot resize the catalog or user set —
/// publish a full snapshot for that).
Result<SnapshotDelta> BuildDelta(const Snapshot& base, const Snapshot& target);

/// ApplyDelta's output: the patched snapshot and its digest.
struct PatchedSnapshot {
  Snapshot snapshot;
  SnapshotDigest digest;
};

/// Applies `delta` to `base`, whose digest the caller passes in
/// (DigestSnapshot(base), or the one the engine carries beside it). Copies
/// the matrix once, writes the changed rows, and computes their CRCs again
/// from the bytes written, so the output is checked in O(users + changed
/// rows). Fails with InvalidArgument when `base` does not match the
/// delta's base fingerprint, and with Internal when the patched result
/// does not match the recorded target fingerprint (either means the delta
/// was built against different bits than it is being applied to).
Result<PatchedSnapshot> ApplyDelta(const Snapshot& base,
                                   const SnapshotDigest& base_digest,
                                   const SnapshotDelta& delta);

/// Writes `delta` to `path` as a framed, CRC-validated `.delta` checkpoint
/// with the same atomic publish as SaveSnapshot.
Status SaveDelta(const SnapshotDelta& delta, const std::string& path);

/// Loads a delta previously written by SaveDelta. Every corruption mode
/// surfaces as a descriptive non-OK Status, never a crash.
Result<SnapshotDelta> LoadDelta(const std::string& path);

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_DELTA_H_
