#ifndef CGKGR_OBS_METRICS_H_
#define CGKGR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"

namespace cgkgr {
namespace obs {

/// \file
/// Process-wide metrics: named Counter / Gauge / Histogram instruments with
/// optional labels, registered in a MetricsRegistry and exported as a
/// Prometheus-style text exposition, a JSON blob (for bench summaries), or a
/// human table. Instrument reads/writes are lock-free (relaxed atomics);
/// only instrument *creation* takes the registry mutex, so the intended use
/// is to fetch pointers once (constructor, function-local static) and then
/// hammer them from any thread. See docs/observability.md for naming
/// conventions and the full instrument inventory.

/// Monotonically increasing event count. `_total`-suffixed by convention.
class Counter {
 public:
  /// Adds `n` (>= 0); safe from any thread.
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Zeroes the counter. Prometheus counters never go down; this exists for
  /// per-owner counters that expose a Reset (serve::Engine::ResetStats) and
  /// for test isolation.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A value that can go up and down (queue depth, last-epoch loss).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  /// Adds `delta` (CAS loop; contended adds retry, reads never block).
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of a Histogram's state (see Histogram::Snapshot).
struct HistogramSnapshot {
  std::array<int64_t, 32> buckets{};
  int64_t count = 0;
  double sum = 0.0;

  /// Upper bound of the bucket holding the p-quantile sample, p in [0, 1].
  /// Returns 0 when empty. A <=2x overestimate — the usual price of O(1)
  /// atomic recording on hot paths.
  double Percentile(double p) const;
};

/// Lock-free fixed-bucket histogram. Bucket b counts samples in [2^b, 2^(b+1))
/// (bucket 0 additionally absorbs sub-1 samples), so 32 buckets span
/// sub-unit to ~2^32 in whatever unit the caller records (this repo's
/// convention: microseconds, suffix `_micros`).
///
/// Thread-safety note: every member is a relaxed atomic, so there is no
/// mutex-protected state to annotate; snapshot-vs-record interleavings are
/// TSan's domain (CGKGR_SANITIZE=thread). SnapshotAndZero reads each bucket
/// with an atomic exchange, so a concurrent Record lands in exactly one
/// snapshot — never lost, never double-counted.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  /// Records one sample; safe to call from any thread.
  void Record(double value);

  /// Upper bound of the bucket holding the p-quantile sample (see
  /// HistogramSnapshot::Percentile). Returns 0 when empty.
  double Percentile(double p) const { return Snapshot().Percentile(p); }

  /// Samples recorded.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of recorded samples.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Point-in-time copy of the buckets (concurrent Records may straddle the
  /// copy; totals are eventually consistent).
  HistogramSnapshot Snapshot() const;

  /// Atomically swaps every bucket to zero and returns what was there: the
  /// race-free replacement for the old "Reset from a quiesced engine"
  /// footgun. Concurrent Records land either in the returned snapshot or in
  /// the freshly zeroed histogram, never in neither/both.
  HistogramSnapshot SnapshotAndZero();

  /// Zeroes all buckets (SnapshotAndZero with the snapshot discarded).
  void Reset() { (void)SnapshotAndZero(); }

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Instrument labels, e.g. {{"dataset", "music"}}. Order-insensitive: the
/// registry canonicalizes by sorting on key. Values must not contain '"',
/// '\' or newlines (CHECK-enforced).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Thread-safe registry of named instruments. `Default()` is the
/// process-wide instance every subsystem records into; tests that need
/// isolation construct their own.
///
/// An instrument is identified by (name, labels); repeated Get* calls with
/// the same identity return the same pointer, which stays valid for the
/// registry's lifetime. A name is bound to one instrument type for the life
/// of the registry (getting `foo` as a counter and later as a gauge is a
/// fatal programming error).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name, const Labels& labels = {})
      CGKGR_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {})
      CGKGR_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {})
      CGKGR_EXCLUDES(mu_);

  /// Prometheus-style text exposition, families sorted by name, members
  /// sorted by label string. Histograms emit only non-empty `_bucket` lines
  /// (plus the cumulative `+Inf`, `_sum`, `_count`) — a documented deviation
  /// that keeps 32-bucket dumps readable; see docs/observability.md.
  std::string Dump() const CGKGR_EXCLUDES(mu_);

  /// JSON array of {"instrument","labels","type",...} objects, one line per
  /// instrument, for embedding in bench JSON summaries.
  std::string DumpJson() const CGKGR_EXCLUDES(mu_);

  /// Human view rendered through common/table_printer.
  std::string ToTable() const CGKGR_EXCLUDES(mu_);

  /// Registered instruments across all families.
  int64_t NumInstruments() const CGKGR_EXCLUDES(mu_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  /// All instruments sharing one name; members keyed by the canonical
  /// rendered label string (`key="value",...`, "" for unlabeled).
  struct Family {
    Type type = Type::kCounter;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family& GetFamily(const std::string& name, Type type)
      CGKGR_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family> families_ CGKGR_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace cgkgr

#endif  // CGKGR_OBS_METRICS_H_
