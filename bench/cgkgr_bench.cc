// The unified experiment runner: executes a declarative spec
// (bench/specs/*.json; the paper's tables and figures are the specs under
// bench/specs/paper/) through exp::RunSpec and publishes one schema-v1
// BENCH_<name>.json artifact. This is the single entry point the perf
// trajectory and the paper tables are built from — tools/bench_compare diffs
// consecutive artifacts, and tools/check.sh runs the committed smoke spec
// behind CGKGR_CHECK_BENCH=1.
//
//   ./build/bench/cgkgr_bench                          # bench/specs/default.json
//   ./build/bench/cgkgr_bench --spec bench/specs/smoke.json --overwrite
//   ./build/bench/cgkgr_bench --spec bench/specs/paper/table4.json
//
// Exits 1 when the spec fails to parse or run, when the artifact cannot be
// written, or when a train row reports bit_identical = 0 (its thread sweep
// broke the determinism contract). See docs/benchmarking.md for the spec
// format and artifact schema.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exp/artifact.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "obs/json.h"

namespace cgkgr {
namespace bench {
namespace {

/// "name=value name=value ..." for every metric of a row, %.5g.
std::string MetricsSummary(const obs::Json& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.members()) {
    if (!out.empty()) out += "  ";
    out += name + "=" + StrFormat("%.5g", value.AsDouble());
  }
  return out;
}

/// Rows of one quality table share a protocol and either all carry a
/// corruption ratio or none does.
std::string QualityTableKey(const obs::Json& row) {
  const obs::Json& params = *row.Get("params");
  return params.GetString("protocol", "?") +
         (params.Get("ratio") != nullptr ? "/ratio" : "");
}

/// Renders quality rows as one table: a row per dataset (and corruption
/// ratio) x variant, a column per metric's mean +/- std over trials, and,
/// when a CG-KGR row is present, its gain over the best other variant ('*'
/// marks a Wilcoxon p < 0.05, the paper's significance marker).
void PrintQualityTable(const std::vector<const obs::Json*>& rows) {
  const obs::Json& first = *rows.front()->Get("metrics");
  std::vector<std::string> metrics;  // those with a _std companion
  for (const auto& [name, value] : first.members()) {
    if (first.Get(name + "_std") != nullptr) metrics.push_back(name);
  }
  const bool has_ratio = rows.front()->Get("params")->Get("ratio") != nullptr;
  bool has_gain = false;
  for (const obs::Json* row : rows) {
    has_gain |= row->Get("params")->Get("gain_vs") != nullptr;
  }
  std::vector<std::string> headers = {"Dataset"};
  if (has_ratio) headers.push_back("KG noise");
  headers.push_back("Variant");
  headers.insert(headers.end(), metrics.begin(), metrics.end());
  if (has_gain) headers.push_back("CG-KGR gain");
  TablePrinter table(headers);
  for (const obs::Json* row : rows) {
    const obs::Json& params = *row->Get("params");
    const obs::Json& values = *row->Get("metrics");
    std::vector<std::string> cells = {params.GetString("dataset", "?")};
    if (has_ratio) {
      cells.push_back(
          StrFormat("%.0f%%", 100.0 * params.GetDouble("ratio", 0.0)));
    }
    cells.push_back(params.GetString("variant", "?"));
    for (const std::string& metric : metrics) {
      const eval::MeanStd summary = {values.GetDouble(metric, 0.0),
                                     values.GetDouble(metric + "_std", 0.0)};
      // Ranking and CTR metrics are fractions, shown in % like the paper.
      cells.push_back(
          metric == "seconds_per_epoch" || metric == "best_epoch"
              ? StrFormat("%.3f +/- %.3f", summary.mean, summary.std)
              : eval::FormatMeanStd(summary));
    }
    std::string gains;
    bool significant = false;
    for (const auto& [name, value] : values.members()) {
      if (name.ends_with("_gain")) {
        gains += (gains.empty() ? "" : " / ") +
                 StrFormat("%+.2f%%", 100.0 * value.AsDouble());
      }
      if (name.ends_with("_p_value")) significant = value.AsDouble() < 0.05;
    }
    if (has_gain) {
      cells.push_back(gains.empty()
                          ? ""
                          : "vs " + params.GetString("gain_vs", "?") +
                                (significant ? "*" : "") + " " + gains);
    }
    table.AddRow(cells);
  }
  std::printf("\nquality/%s: mean +/- std over trials; ranking and CTR "
              "metrics in %%\n",
              QualityTableKey(*rows.front()).c_str());
  table.Print();
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("spec", "bench/specs/default.json",
                     "experiment spec to run");
  flags.DefineString("out", exp::kDefaultArtifactDir,
                     "artifact output directory (empty = skip the write)");
  flags.DefineBool("overwrite", false,
                   "replace an existing BENCH_*.json artifact");
  flags.DefineInt64("seed", 0, "override the spec's base seed (0 = keep)");
  flags.DefineString("scratch", "/tmp",
                     "scratch directory for scenario work files");
  flags.DefineBool("verbose", false, "log per-case progress");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  Result<exp::ExperimentSpec> spec =
      exp::ParseSpecFile(flags.GetString("spec"));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.GetString("spec").c_str(),
                 spec.status().ToString().c_str());
    return 1;
  }
  std::printf("spec %s: %lld case(s), seed %llu\n",
              spec.value().name.c_str(),
              static_cast<long long>(spec.value().cases.size()),
              static_cast<unsigned long long>(spec.value().seed));

  exp::RunnerOptions options;
  options.seed_override = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.verbose = flags.GetBool("verbose");
  options.scratch_dir = flags.GetString("scratch");
  Result<obs::Json> artifact = exp::RunSpec(spec.value(), options);
  if (!artifact.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }

  const std::vector<obs::Json>& rows = artifact.value().Get("rows")->items();
  TablePrinter table({"Row", "Wall (s)", "Metrics"});
  bool any_perf_row = false;
  for (const obs::Json& row : rows) {
    if (row.GetString("scenario", "") == "quality") continue;
    const obs::Json* metrics = row.Get("metrics");
    table.AddRow({row.GetString("label", "?"),
                  StrFormat("%.3f", metrics->GetDouble("wall_seconds", 0.0)),
                  MetricsSummary(*metrics)});
    any_perf_row = true;
  }
  if (any_perf_row) table.Print();
  std::vector<const obs::Json*> quality;  // rows of the current table
  for (const obs::Json& row : rows) {
    if (row.GetString("scenario", "") != "quality") continue;
    if (!quality.empty() &&
        QualityTableKey(*quality.front()) != QualityTableKey(row)) {
      PrintQualityTable(quality);
      quality.clear();
    }
    quality.push_back(&row);
  }
  if (!quality.empty()) PrintQualityTable(quality);

  const std::string out_dir = flags.GetString("out");
  if (!out_dir.empty()) {
    Status st = exp::EnsureDirectory(out_dir);
    const std::string path =
        out_dir + "/" + exp::ArtifactFileName(spec.value().name);
    if (st.ok()) {
      st = exp::WriteArtifact(artifact.value(), path,
                              flags.GetBool("overwrite"));
    }
    if (!st.ok()) {
      std::fprintf(stderr, "artifact: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("artifact written to %s\n", path.c_str());
  }

  int status = 0;
  for (const obs::Json& row : rows) {
    if (row.Get("metrics")->GetInt("bit_identical", 1) == 0) {
      std::fprintf(stderr, "%s: loss curve diverged across the thread sweep "
                   "(bit_identical = 0)\n",
                   row.GetString("label", "?").c_str());
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace bench
}  // namespace cgkgr

int main(int argc, char** argv) { return cgkgr::bench::Main(argc, argv); }
