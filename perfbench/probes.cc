#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // 1-based rank
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

HostSample HostSample::Read() {
  HostSample sample;
  sample.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    // user nice system idle iowait irq softirq steal ...
    double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (double& v : f) stat >> v;
    sample.busy_ticks = f[0] + f[1] + f[2] + f[5] + f[6];
    sample.steal_ticks = f[7];
  }
  std::ifstream pressure("/proc/pressure/cpu");
  std::string line;
  while (std::getline(pressure, line)) {
    if (line.rfind("some", 0) != 0) continue;
    const size_t at = line.find("total=");
    if (at != std::string::npos) {
      sample.pressure_us = std::stod(line.substr(at + 6));
    }
  }
  return sample;
}

HostShare HostBetween(const HostSample& a, const HostSample& b) {
  HostShare share;
  const double steal = b.steal_ticks - a.steal_ticks;
  const double busy = b.busy_ticks - a.busy_ticks;
  if (steal + busy > 0.0) share.steal_frac = steal / (steal + busy);
  const double wall = b.wall_us - a.wall_us;
  if (wall > 0.0) {
    share.cpu_pressure_frac = (b.pressure_us - a.pressure_us) / wall;
  }
  return share;
}

void SpanTable::Drain() {
  std::vector<cgkgr::obs::TraceCollector::Event> events =
      cgkgr::obs::TraceCollector::Default().DrainEvents();
  // Per thread, spans nest (RAII), so a stack over start-ordered spans finds
  // each span's direct parent. Longer spans sort first on equal starts so
  // that a parent precedes a child that opened in the same microsecond.
  std::stable_sort(events.begin(), events.end(),
                   [](const cgkgr::obs::TraceCollector::Event& a,
                      const cgkgr::obs::TraceCollector::Event& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  constexpr double kSlackUs = 1e-3;
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid && e.ts_us + kSlackUs >= top.ts_us &&
          e.ts_us + e.dur_us <= top.ts_us + top.dur_us + kSlackUs) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.dur_us;
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    SpanStat& stat = stats_[events[i].name];
    ++stat.count;
    stat.total_us += events[i].dur_us;
    stat.self_us += std::max(0.0, events[i].dur_us - child_us[i]);
  }
}

const SpanStat& SpanTable::Get(const std::string& name) const {
  static const SpanStat kEmpty;
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

void SetTracing(bool enabled) {
  cgkgr::obs::TraceCollector& collector =
      cgkgr::obs::TraceCollector::Default();
  if (enabled) {
    collector.Enable("");
  } else {
    collector.Disable();
  }
}

int64_t CounterValue(const std::string& name,
                     const cgkgr::obs::Labels& labels) {
  return cgkgr::obs::MetricsRegistry::Default()
      .GetCounter(name, labels)
      ->value();
}

double HistogramMedianSince(const std::string& name,
                            const cgkgr::obs::HistogramSnapshot& before) {
  cgkgr::obs::HistogramSnapshot delta =
      cgkgr::obs::MetricsRegistry::Default().GetHistogram(name)->Snapshot();
  for (size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] -= before.buckets[b];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta.Percentile(0.5);
}

}  // namespace perfbench
