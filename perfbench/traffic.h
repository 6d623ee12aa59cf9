#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

// Serving traffic for the perfbench workloads: one Frontend -> Router ->
// Engine stack over a snapshot directory, driven by a synchronous client, a
// saturated closed loop with a delta publisher beside it, or an open-loop
// Poisson generator. Every response the stack returns is counted, and a
// sample of them is checked against the benchmark's own copy of the
// snapshot at the response's generation.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/frontend.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace perfbench {

/// The traffic mix and the serving stack's knobs that differ between
/// workloads.
struct TrafficOptions {
  /// Result-cache capacity; below the user count, so uniform traffic
  /// mostly misses while the hot set stays cached.
  int64_t cache_capacity = 256;
  /// Hot users, and the share of requests that go to them; the rest are
  /// uniform over all users.
  int64_t hot_users = 32;
  double hot_share = 0.15;
  /// Deltas published over an end-to-end run, split evenly over its
  /// rounds' closed loops.
  int64_t publishes = 8;
  /// Open-loop offered rate.
  double open_rate_qps = 2000.0;
};

/// Operations attempted and failed, outputs that failed a check, and the
/// first few notes on either.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::vector<std::string> notes;

  void Op(bool ok, std::string_view what);
  void Check(bool ok, std::string_view what);
  void Note(std::string_view what);
  void Merge(const Tally& other);
};

/// Engine and frontend counter deltas over one phase.
struct PhaseCounters {
  int64_t requests = 0;
  int64_t computes = 0;
  int64_t coalesced = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t batches = 0;
  int64_t completed = 0;
  int64_t queue_peak = 0;
};

struct SyncResult {
  std::vector<double> latency_us;  // Submit until the future is ready
};

struct ClosedLoopResult {
  double seconds = 0.0;
  int64_t ok = 0;
  double qps = 0.0;  // OK responses per second
  /// OK responses per second in each whole half-second window, so that a
  /// median over windows discounts short bursts of host contention.
  std::vector<double> window_qps;
  /// Per publish: start of SaveDelta until the first response carrying the
  /// new generation, and the end of ReloadFromDir until that response.
  std::vector<double> visible_ms;
  std::vector<double> visible_after_reload_ms;
  std::vector<double> delta_rows;  // rows per published delta
  PhaseCounters counters;
};

struct OpenLoopResult {
  std::vector<double> latency_us;  // from each request's scheduled send
  int64_t within_slo = 0;
  int64_t attempted = 0;
  double max_late_ms = 0.0;  // how far sends fell behind their schedule
};

/// One serving stack over `dir`, whose only artifact is `base` saved as a
/// snapshot file. Not thread-safe; run one phase at a time.
class ServeSession {
 public:
  ServeSession(const TrafficOptions& options,
               std::shared_ptr<const cgkgr::serve::Snapshot> base,
               std::string dir, int64_t engine_lanes, uint64_t seed);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Builds the stack and anchors the engine on the directory's snapshot
  /// file, so that later deltas apply incrementally.
  cgkgr::Status Prepare(double* prep_seconds);
  /// Warms the result cache with one pass over the hot users and a
  /// cache-sized stream of traffic.
  cgkgr::Status WarmUp(double* warmup_seconds);

  /// One client: Submit, poll the future until it is ready, repeat.
  SyncResult RunSync(double seconds);
  /// One client keeps 128 requests outstanding while a publisher writes
  /// `publishes` deltas on a fixed cadence and hot-reloads them.
  ClosedLoopResult RunClosedLoop(double seconds, int64_t publishes);
  /// Poisson arrivals at `rate_qps` from one generator.
  OpenLoopResult RunOpenLoop(double seconds, double rate_qps);

  /// Checks every sampled response against the reference top-k of the
  /// benchmark's own snapshot copy at that response's generation.
  void VerifySamples();

  const Tally& tally() const { return tally_; }

 private:
  struct Sample {
    uint64_t generation = 0;
    int64_t user = 0;
    std::vector<cgkgr::serve::ScoredItem> items;
  };
  /// The rows one publish rewrote: user -> (scores, seen).
  struct Change {
    uint64_t generation = 0;
    std::vector<int64_t> users;
    std::vector<std::vector<float>> scores;
    std::vector<std::vector<int64_t>> seen;
  };

  cgkgr::serve::Request NextRequest();
  PhaseCounters CountersNow() const;
  static PhaseCounters Since(const PhaseCounters& before,
                             const PhaseCounters& after);
  /// Records one finished response (op count, generation order, sample).
  void Observe(const cgkgr::serve::Response& response, int64_t user,
               uint64_t* last_generation);
  struct PublishRecord {
    uint64_t generation = 0;
    double save_start_us = 0.0;  // since the phase origin
    double reload_end_us = 0.0;
  };
  using PublishLog = std::vector<PublishRecord>;
  /// Writes, saves and hot-reloads one delta; returns false on failure.
  /// Runs on the publisher thread: touches only publisher state and
  /// `tally`.
  bool Publish(std::chrono::steady_clock::time_point origin,
               ClosedLoopResult* result, PublishLog* log, Tally* tally);

  const TrafficOptions options_;
  const std::shared_ptr<const cgkgr::serve::Snapshot> base_;
  const std::string dir_;
  const int64_t engine_lanes_;
  cgkgr::Rng rng_;
  cgkgr::Rng delta_rng_;
  std::vector<int64_t> hot_;

  std::unique_ptr<cgkgr::serve::Router> router_;
  cgkgr::serve::Engine* engine_ = nullptr;
  std::unique_ptr<cgkgr::serve::Frontend> frontend_;

  /// The publisher's working copy (the state the next delta diffs from).
  cgkgr::serve::Snapshot current_;
  uint64_t anchor_generation_ = 0;
  uint64_t published_generation_ = 0;
  int64_t next_file_ = 2;
  std::vector<Change> changes_;
  std::vector<Sample> samples_;
  int64_t ok_seen_ = 0;
  Tally tally_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
