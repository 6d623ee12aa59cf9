#ifndef CGKGR_SERVE_ENGINE_H_
#define CGKGR_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/delta.h"
#include "serve/lru_cache.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "serve/stats.h"

namespace cgkgr {
namespace serve {

/// Engine construction knobs.
struct EngineOptions {
  /// Lanes HandleBatch spreads whole requests across (1 = no worker
  /// spawned). Handle computes on the calling thread.
  int64_t num_threads = 1;
  /// Total cached result lists across the cache's kCacheShards lock
  /// shards; 0 disables the cache.
  int64_t cache_capacity = 4096;
};

/// Answers Top-K recommendation queries from a frozen Snapshot at
/// interactive latency: no model code runs on the request path. A user's
/// train-split items (Snapshot::seen) are never recommended.
///
/// Per query, one pass over the user's unseen items keeps a bounded heap of
/// at most k entries, and the survivors are sorted at the end: O(num_items)
/// compares, O(log k) per heap replacement and O(k log k) for the sort,
/// instead of a full O(num_items·log num_items) sort. Results follow
/// eval::RanksBefore (score descending, NaN last, ties toward the smaller
/// item id), a total order, so they do not depend on the lane or path.
///
/// The request API is Handle/HandleBatch over serve::Request — bad
/// arguments surface as Response::kInvalidArgument, duplicate (user, k)
/// entries within one batch are coalesced to a single computation,
/// and each response carries the snapshot generation that served it.
///
/// Thread safety: Handle/HandleBatch may be called concurrently with each
/// other and with the reload entry points. Full reloads swap the snapshot
/// pointer under a writer lock and invalidate the whole result cache;
/// delta reloads (ApplyDeltaSnapshot) bump only the *changed users'* cache
/// epochs, so unchanged users keep their cached lists across the reload.
/// Cache entries are epoch-keyed, so an in-flight query can never
/// resurrect a stale list.
class Engine {
 public:
  /// Validating factory: returns InvalidArgument for a null or internally
  /// inconsistent snapshot and for out-of-range options, instead of the
  /// constructor's CHECK-abort. New call sites should use this.
  static Result<std::unique_ptr<Engine>> Create(
      std::shared_ptr<const Snapshot> snapshot, const EngineOptions& options);

  /// Direct constructor; CHECK-fails on a null or inconsistent snapshot.
  /// Prefer Create() for error handling.
  Engine(std::shared_ptr<const Snapshot> snapshot, EngineOptions options);

  /// Serves one request on the calling thread. The tenant field is
  /// ignored at this layer — the Router resolves it before requests reach
  /// an Engine.
  Response Handle(const Request& request) CGKGR_EXCLUDES(snapshot_mu_);

  /// Serves a batch, parallelized whole-request across the pool. Results
  /// align with `requests`. Duplicate (user, k) entries are computed once
  /// and fanned back out. A duplicate of a served request counts toward
  /// serve_requests_total and serve_batch_coalesced_total; a duplicate of
  /// a refused one counts nowhere, like the refused request itself.
  std::vector<Response> HandleBatch(const std::vector<Request>& requests)
      CGKGR_EXCLUDES(snapshot_mu_);

  /// Atomically replaces the snapshot (e.g. after retraining) and
  /// invalidates every cached result.
  void ReloadSnapshot(std::shared_ptr<const Snapshot> snapshot)
      CGKGR_EXCLUDES(snapshot_mu_);

  /// Installs a patched copy of the serving snapshot (see serve/delta.h),
  /// invalidating cached results only for the users the delta touches.
  /// Fails with InvalidArgument when the delta does not apply to the
  /// serving snapshot (dimension or base-fingerprint mismatch), and with
  /// Internal when the patched rows miss the delta's target fingerprint;
  /// either way the engine keeps serving its current snapshot and
  /// generation. Both checks fold the digest kept beside the snapshot, so
  /// the fingerprint work is O(users + changed rows). Safe concurrent with
  /// serving.
  Status ApplyDeltaSnapshot(const SnapshotDelta& delta)
      CGKGR_EXCLUDES(snapshot_mu_);

  /// Hot-reloads from the `*.snap` / `*.delta` artifacts in `dir`,
  /// ordered by file name (the trainer's zero-padded naming). When the
  /// serving snapshot came from this directory, every artifact published
  /// after it is applied in order — full snapshots install (whole-cache
  /// invalidation), deltas patch (row-level invalidation). Otherwise the
  /// newest valid full snapshot is installed first and later deltas are
  /// chained on top. Corrupt or inapplicable artifacts are skipped with a
  /// logged warning and a serve_snapshot_reload_skipped_total bump, never
  /// an abort. Returns OK when the engine ends up serving current state,
  /// NotFound when the directory holds no valid snapshot. Safe concurrent
  /// with serving.
  Status ReloadFromDir(const std::string& dir) CGKGR_EXCLUDES(snapshot_mu_);

  /// The currently served snapshot.
  std::shared_ptr<const Snapshot> snapshot() const
      CGKGR_EXCLUDES(snapshot_mu_);

  /// Monotonically increasing snapshot generation: starts at 0, bumps on
  /// every install (full or delta).
  uint64_t generation() const CGKGR_EXCLUDES(snapshot_mu_);

  /// Point-in-time counters (reads this engine's registry instruments).
  EngineStats stats() const;

  /// Zeroes counters and the latency histogram. Safe concurrent with
  /// serving: the histogram swap is atomic per bucket (SnapshotAndZero), so
  /// in-flight samples land either before or after the reset, never in both.
  void ResetStats();

  const EngineOptions& options() const { return options_; }

  /// Lock shards of the result cache.
  static constexpr int64_t kCacheShards = 8;

 private:
  /// The top min(k, candidates) of `user`'s row on the calling thread:
  /// one ascending-id scan of the unseen items into a bounded heap (the
  /// worst entry on top), then a sort of the survivors. The returned
  /// vector is its one allocation.
  static std::vector<ScoredItem> Compute(const Snapshot& snapshot,
                                         int64_t user, int64_t k);
  /// Cache lookup + compute + cache fill + latency accounting for one
  /// validated request. `epoch` is the user's row epoch under the serving
  /// snapshot.
  Response ServeOne(const Snapshot& snapshot, uint64_t generation,
                    uint64_t epoch, const Request& request);

  struct CacheKey {
    uint64_t epoch = 0;
    int64_t user = 0;
    int64_t k = 0;

    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      // splitmix-style mixing of the three fields. The salted closing round
      // is the one earlier releases spent on a seen-filter bit that is now
      // always set: it keeps every key in the same shard, so per-shard
      // eviction and the hit counts the benchmarks record stay the same.
      uint64_t h = key.epoch * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<uint64_t>(key.user) + 0x9E3779B97F4A7C15ULL +
           (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(key.k) + 0x9E3779B97F4A7C15ULL + (h << 6) +
           (h >> 2);
      h ^= uint64_t{0x9E37} + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  const EngineOptions options_;
  ThreadPool pool_;

  /// Digests `snapshot`, swaps it and its digest in, bumps the generation,
  /// records which directory file it came from ("" for direct
  /// ReloadSnapshot calls), resets every user's row epoch to the new
  /// generation, and clears the cache.
  void InstallSnapshot(std::shared_ptr<const Snapshot> snapshot,
                       std::string file) CGKGR_EXCLUDES(snapshot_mu_);

  /// ApplyDeltaSnapshot plus the originating directory file name.
  Status ApplyDeltaInstall(const SnapshotDelta& delta, std::string file)
      CGKGR_EXCLUDES(snapshot_mu_);

  mutable SharedMutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_ CGKGR_GUARDED_BY(snapshot_mu_);
  /// The per-user CRCs of *snapshot_, swapped together with it. A delta
  /// install patches it forward instead of re-reading the matrix. It lives
  /// here rather than in Snapshot because callers copy a Snapshot and
  /// write its rows in place, which would leave a cached digest stale.
  SnapshotDigest digest_ CGKGR_GUARDED_BY(snapshot_mu_);
  uint64_t generation_ CGKGR_GUARDED_BY(snapshot_mu_) = 0;
  /// Per-user cache epoch: the generation that last changed the user's
  /// row. Cache keys embed it, so bumping one user's epoch invalidates
  /// exactly that user's cached lists.
  std::vector<uint64_t> row_epochs_ CGKGR_GUARDED_BY(snapshot_mu_);
  /// Directory file name the served snapshot was loaded from by
  /// ReloadFromDir; empty when it came from the constructor or a direct
  /// ReloadSnapshot call.
  std::string loaded_file_ CGKGR_GUARDED_BY(snapshot_mu_);

  // Registry instruments, labeled {engine="<sequential id>"} so every
  // Engine's counts stay separable (and serve_test's exact per-engine
  // assertions hold) while still appearing in the process-wide
  // MetricsRegistry::Dump(). Pointers are registry-owned and stable; set
  // once in the constructor, immutable after.
  obs::Counter* requests_ = nullptr;
  obs::Counter* computes_ = nullptr;
  obs::Counter* batch_coalesced_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evictions_ = nullptr;
  obs::Counter* snapshot_reloads_ = nullptr;
  obs::Counter* snapshot_delta_reloads_ = nullptr;
  obs::Counter* snapshot_reload_skipped_ = nullptr;
  obs::Gauge* cache_size_ = nullptr;
  obs::Histogram* latency_ = nullptr;

  std::unique_ptr<ShardedLruCache<CacheKey, std::vector<ScoredItem>,
                                  CacheKeyHash>>
      cache_;  // null when cache_capacity == 0
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_ENGINE_H_
