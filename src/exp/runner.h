#ifndef CGKGR_EXP_RUNNER_H_
#define CGKGR_EXP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exp/artifact.h"
#include "exp/spec.h"
#include "obs/json.h"

namespace cgkgr {
namespace exp {

/// \file
/// The unified experiment runner: executes an ExperimentSpec case by case
/// (sampling obs::ProcessStats at every case boundary) and assembles one
/// schema-v1 artifact with per-case rows, the process section, and the
/// embedded MetricsRegistry dump. bench/cgkgr_bench.cc is the CLI driver.

struct RunnerOptions {
  /// Overrides the spec's base seed when non-zero.
  uint64_t seed_override = 0;
  /// Log per-case progress via CGKGR_LOG.
  bool verbose = false;
  /// Directory for scenario scratch files (ckpt publish targets).
  std::string scratch_dir = "/tmp";
};

/// Kernel names the micro_ops scenario understands (an empty
/// CaseSpec::kernels list runs all of them).
std::vector<std::string> MicroKernelNames();

/// Executes one case with `seed` and appends its rows to `rows`. Row
/// labels are derived from the case parameters (scenario/model/dataset/
/// threads/trial), so reruns of the same spec produce the same labels —
/// the join key of the comparator.
Status RunCase(const CaseSpec& spec, uint64_t seed,
               const RunnerOptions& options, std::vector<CaseResult>* rows);

/// Executes every case of `spec` and returns the complete artifact
/// document (header, rows, process section, metrics dump).
Result<obs::Json> RunSpec(const ExperimentSpec& spec,
                          const RunnerOptions& options = {});

/// Creates `dir` (and parents) when missing; OK when it already exists.
Status EnsureDirectory(const std::string& dir);

/// A fresh obs::ProcessStats sample rendered as the artifact's "process"
/// section (current/peak RSS, CPU seconds, thread count). Also publishes
/// the process_* gauges to the default registry.
obs::Json ProcessSectionJson();

}  // namespace exp
}  // namespace cgkgr

#endif  // CGKGR_EXP_RUNNER_H_
