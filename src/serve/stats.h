#ifndef CGKGR_SERVE_STATS_H_
#define CGKGR_SERVE_STATS_H_

#include <cstdint>
#include <string>


namespace cgkgr {
namespace serve {

/// A point-in-time copy of an Engine's counters. The live values are
/// obs::MetricsRegistry::Default() instruments labeled
/// {engine="<id>"}; this struct is the stable per-engine read API on top.
struct EngineStats {
  int64_t requests = 0;
  /// Requests actually scored (cache misses + uncached computes); batch
  /// duplicates coalesced to one computation count once here.
  int64_t computes = 0;
  /// Duplicate (user, k) entries folded within HandleBatch calls.
  int64_t batch_coalesced = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t snapshot_reloads = 0;
  /// Delta patches applied (row-level invalidation reloads).
  int64_t snapshot_delta_reloads = 0;
  /// Latency percentiles from the engine's obs::Histogram: bucket upper
  /// bounds in microseconds, a <=2x overestimate.
  double p50_micros = 0.0;
  double p95_micros = 0.0;
  double p99_micros = 0.0;

  double CacheHitRate() const {
    const int64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }

  /// Renders the counters as an aligned two-column table
  /// (common/table_printer layout).
  std::string ToTable() const;
};

/// A point-in-time copy of a Frontend's admission counters (live values:
/// serve_frontend_* instruments labeled {frontend="<id>"}).
struct FrontendStats {
  /// Submit() calls, including ones shed at the door.
  int64_t submitted = 0;
  /// Requests dispatched through the router (any response status).
  int64_t completed = 0;
  /// Requests rejected because the admission queue was full.
  int64_t shed = 0;
  /// Micro-batches dispatched.
  int64_t batches = 0;
  /// High-water mark of the admission queue.
  int64_t queue_peak = 0;

  /// Fraction of submissions shed at the door.
  double ShedFraction() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(shed) /
                                static_cast<double>(submitted);
  }

  /// Renders the counters as an aligned two-column table.
  std::string ToTable() const;
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_STATS_H_
