#ifndef CGKGR_EVAL_EXPERIMENT_H_
#define CGKGR_EVAL_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "eval/metrics.h"

namespace cgkgr {
namespace eval {

/// Collects per-trial metric samples across repeated runs and summarizes
/// them as mean +/- std, the way every table in the paper reports results.
class TrialAggregator {
 public:
  /// Records one sample of `metric` for `row` (typically a model name).
  void Add(const std::string& row, const std::string& metric, double value);

  /// Mean/std of all samples recorded under (row, metric). Zero-filled if
  /// nothing was recorded.
  MeanStd Summary(const std::string& row, const std::string& metric) const;

  /// The raw samples (e.g. for significance testing).
  const std::vector<double>& Samples(const std::string& row,
                                     const std::string& metric) const;

  /// Rows in insertion order.
  const std::vector<std::string>& rows() const { return row_order_; }

  /// Row (other than `exclude`) with the highest mean of `metric`.
  /// Returns an empty string if there are no other rows.
  std::string BestRowExcept(const std::string& metric,
                            const std::string& exclude) const;

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> data_;
  std::vector<std::string> row_order_;
};

/// Formats mean +/- std as the paper does, e.g. "21.62 +/- 3.67" with values
/// multiplied by `scale` (100 for percentages).
std::string FormatMeanStd(const MeanStd& value, double scale = 100.0);

}  // namespace eval
}  // namespace cgkgr

#endif  // CGKGR_EVAL_EXPERIMENT_H_
