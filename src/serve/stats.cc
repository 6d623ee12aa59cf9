#include "serve/stats.h"

#include "common/string_util.h"
#include "common/table_printer.h"

namespace cgkgr {
namespace serve {

std::string EngineStats::ToTable() const {
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"requests", StrFormat("%lld", (long long)requests)});
  table.AddRow({"computes", StrFormat("%lld", (long long)computes)});
  table.AddRow(
      {"batch coalesced", StrFormat("%lld", (long long)batch_coalesced)});
  table.AddRow({"cache hits", StrFormat("%lld", (long long)cache_hits)});
  table.AddRow({"cache misses", StrFormat("%lld", (long long)cache_misses)});
  table.AddRow(
      {"cache evictions", StrFormat("%lld", (long long)cache_evictions)});
  table.AddRow({"cache hit rate", StrFormat("%.2f%%", 100.0 * CacheHitRate())});
  table.AddRow(
      {"snapshot reloads", StrFormat("%lld", (long long)snapshot_reloads)});
  table.AddRow({"delta reloads",
                StrFormat("%lld", (long long)snapshot_delta_reloads)});
  table.AddRow({"reload skips",
                StrFormat("%lld", (long long)snapshot_reload_skipped)});
  table.AddRow({"p50 latency", StrFormat("%.0f us", p50_micros)});
  table.AddRow({"p95 latency", StrFormat("%.0f us", p95_micros)});
  table.AddRow({"p99 latency", StrFormat("%.0f us", p99_micros)});
  return table.ToString();
}

std::string FrontendStats::ToTable() const {
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"submitted", StrFormat("%lld", (long long)submitted)});
  table.AddRow({"completed", StrFormat("%lld", (long long)completed)});
  table.AddRow({"shed", StrFormat("%lld", (long long)shed)});
  table.AddRow({"batches", StrFormat("%lld", (long long)batches)});
  table.AddRow({"queue peak", StrFormat("%lld", (long long)queue_peak)});
  table.AddRow({"shed fraction", StrFormat("%.2f%%", 100.0 * ShedFraction())});
  table.AddRow({"wakeups", StrFormat("%lld", (long long)wakeups)});
  table.AddRow(
      {"wakeup fraction", StrFormat("%.2f%%", 100.0 * WakeupFraction())});
  table.AddRow({"queue wait p50", StrFormat("%.0f us", queue_wait_p50_us)});
  table.AddRow({"queue wait p99", StrFormat("%.0f us", queue_wait_p99_us)});
  return table.ToString();
}

}  // namespace serve
}  // namespace cgkgr
