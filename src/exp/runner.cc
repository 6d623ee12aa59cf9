#include "exp/runner.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/string_util.h"
#include "exp/artifact.h"
#include "exp/spec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"

namespace cgkgr {
namespace exp {

namespace {

/// Prepends `context` to `status`'s message, preserving its code.
Status Annotate(const Status& status, const std::string& context) {
  const std::string msg = context + ": " + status.message();
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kIOError:
      return Status::IOError(msg);
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(msg);
    default:
      return Status::Internal(msg);
  }
}

}  // namespace

obs::Json ProcessSectionJson() {
  const obs::ProcessStats stats = obs::SampleProcessStats();
  obs::Json section = obs::Json::Object();
  section.Set("current_rss_bytes", obs::Json::Int(stats.current_rss_bytes));
  section.Set("peak_rss_bytes", obs::Json::Int(stats.peak_rss_bytes));
  section.Set("cpu_user_seconds", obs::Json::Double(stats.cpu_user_seconds));
  section.Set("cpu_system_seconds",
              obs::Json::Double(stats.cpu_system_seconds));
  section.Set("num_threads", obs::Json::Int(stats.num_threads));
  return section;
}

Status EnsureDirectory(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  // Create each prefix in turn (mkdir -p); EEXIST at any level is fine.
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(
          StrFormat("mkdir %s: errno %d", prefix.c_str(), errno));
    }
  }
  return Status::OK();
}

Result<obs::Json> RunSpec(const ExperimentSpec& spec,
                          const RunnerOptions& options) {
  const uint64_t base_seed =
      options.seed_override != 0 ? options.seed_override : spec.seed;
  std::vector<CaseResult> rows;
  // The opening boundary sample, so the artifact's process section covers
  // the whole run even when a scenario fails early.
  obs::SampleProcessStats();
  for (size_t index = 0; index < spec.cases.size(); ++index) {
    const CaseSpec& case_spec = spec.cases[index];
    if (options.verbose) {
      CGKGR_LOG(Info) << "exp.case " << Kv("index", index)
                      << Kv("scenario", case_spec.scenario);
    }
    const uint64_t case_seed =
        base_seed + 1000003ULL * static_cast<uint64_t>(index);
    Status status = RunCase(case_spec, case_seed, options, &rows);
    if (!status.ok()) {
      return Annotate(status,
                      StrFormat("case %lld (%s)",
                                static_cast<long long>(index),
                                case_spec.scenario.c_str()));
    }
  }

  Result<obs::Json> metrics_dump =
      obs::Json::Parse(obs::MetricsRegistry::Default().DumpJson());
  if (!metrics_dump.ok()) {
    return Status::Internal("MetricsRegistry::DumpJson is not valid JSON: " +
                            metrics_dump.status().ToString());
  }
  obs::Json artifact =
      BuildArtifact(spec.name, rows, RunHeader(), metrics_dump.value());
  artifact.Set("process", ProcessSectionJson());
  CGKGR_RETURN_NOT_OK(ValidateArtifact(artifact));
  return artifact;
}

}  // namespace exp
}  // namespace cgkgr
