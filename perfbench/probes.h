#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Measurement helpers shared by the perfbench workloads: order statistics,
// host CPU counters, registry deltas and span self-time tables.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// Host-wide CPU counters from /proc/stat and /proc/pressure/cpu. Fields
/// stay 0 where the files are unreadable.
struct HostSample {
  double busy_ticks = 0.0;   // user + nice + system + irq + softirq
  double steal_ticks = 0.0;
  double pressure_us = 0.0;  // "some" stall total
  double wall_us = 0.0;

  static HostSample Read();
};

/// Share of busy-plus-stolen CPU time the hypervisor stole between `a` and
/// `b`, and share of wall time some task waited for a CPU.
struct HostShare {
  double steal_frac = 0.0;
  double cpu_pressure_frac = 0.0;
};
HostShare HostBetween(const HostSample& a, const HostSample& b);

/// Aggregate of completed spans with one name: count, total duration and
/// total self time (duration minus the time direct children on the same
/// thread cover), all in microseconds.
struct SpanStat {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;

  double MeanUs() const { return count == 0 ? 0.0 : total_us / count; }
  double MeanSelfUs() const { return count == 0 ? 0.0 : self_us / count; }
};

/// Span statistics by name, folded from TraceCollector drains. Drain only
/// while no span is open, so that every parent arrives with its children.
class SpanTable {
 public:
  /// Drains the process-wide collector into this table.
  void Drain();
  const SpanStat& Get(const std::string& name) const;

 private:
  std::map<std::string, SpanStat> stats_;
};

/// Turns in-process span recording on (no export file) or off.
void SetTracing(bool enabled);

/// Registry reads: the value of an existing counter (0 when never created).
int64_t CounterValue(const std::string& name,
                     const cgkgr::obs::Labels& labels = {});

/// Median bucket bound of the samples `name` gained between `before` and
/// the histogram's current state.
double HistogramMedianSince(const std::string& name,
                            const cgkgr::obs::HistogramSnapshot& before);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
