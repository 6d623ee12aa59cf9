#include "eval/experiment.h"

#include <algorithm>

#include "common/string_util.h"

namespace cgkgr {
namespace eval {

namespace {
const std::vector<double> kEmptySamples;
}  // namespace

void TrialAggregator::Add(const std::string& row, const std::string& metric,
                          double value) {
  if (data_.find(row) == data_.end()) row_order_.push_back(row);
  data_[row][metric].push_back(value);
}

MeanStd TrialAggregator::Summary(const std::string& row,
                                 const std::string& metric) const {
  return ComputeMeanStd(Samples(row, metric));
}

const std::vector<double>& TrialAggregator::Samples(
    const std::string& row, const std::string& metric) const {
  auto row_it = data_.find(row);
  if (row_it == data_.end()) return kEmptySamples;
  auto metric_it = row_it->second.find(metric);
  if (metric_it == row_it->second.end()) return kEmptySamples;
  return metric_it->second;
}

std::string TrialAggregator::BestRowExcept(const std::string& metric,
                                           const std::string& exclude) const {
  std::string best;
  double best_mean = 0.0;
  for (const std::string& row : row_order_) {
    if (row == exclude) continue;
    const MeanStd summary = Summary(row, metric);
    if (best.empty() || summary.mean > best_mean) {
      best = row;
      best_mean = summary.mean;
    }
  }
  return best;
}

std::string FormatMeanStd(const MeanStd& value, double scale) {
  return StrFormat("%.2f +/- %.2f", value.mean * scale, value.std * scale);
}

}  // namespace eval
}  // namespace cgkgr
