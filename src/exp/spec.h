#ifndef CGKGR_EXP_SPEC_H_
#define CGKGR_EXP_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cgkgr_config.h"
#include "obs/json.h"

namespace cgkgr {
namespace exp {

/// \file
/// Declarative experiment specs: what the unified bench runner executes.
/// A spec is a JSON document (committed under bench/specs/) naming the
/// experiment and a list of cases — scenario x model x dataset preset x
/// trials x threads — that exp::RunSpec turns into one schema-v1 artifact.
/// The paper's tables and figures are specs too (bench/specs/paper/).
/// See docs/benchmarking.md for the format reference.

/// The benchmark scenarios the runner knows how to execute.
///   train          — ParallelTrainer thread sweep: samples/sec + bit-identity.
///   serve          — serve::Engine qps/latency sweep over a frozen snapshot.
///   serve_frontend — Frontend/Router reload-under-load: full vs delta
///                    snapshot publication with shed accounting.
///   ckpt           — checkpoint publish / open / load latency vs model size.
///   micro_ops      — kernel microbenchmarks of the tensor/autograd substrate.
///   quality        — the paper-table loop: datasets x trials x KG-corruption
///                    ratios x variants, each fit and evaluated under the
///                    topk or ctr protocol, summarized as mean/std/n rows.
std::vector<std::string> ScenarioNames();

/// One variant of a quality case: a registry model, reported under `label`,
/// optionally with CG-KGR config overrides such as {"depth": 0}.
struct VariantSpec {
  std::string label;
  std::string model;
  /// CgKgrConfig overrides (see ApplyCgKgrOverrides); CG-KGR only.
  obs::Json config = obs::Json::Object();
};

/// Applies the overrides object of a variant to `config`. Keys: depth,
/// encoder, aggregator, guidance_mode (full | NE | PF | AG),
/// use_interactive_summarization, use_knowledge_attention,
/// use_collaborative_guidance, sampling_strategy (uniform | degree-biased).
/// An unknown key or a wrong-typed value is InvalidArgument.
Status ApplyCgKgrOverrides(const obs::Json& overrides,
                           core::CgKgrConfig* config);

/// One experiment case. Fields irrelevant to a case's scenario keep their
/// defaults and are ignored by the runner.
struct CaseSpec {
  std::string scenario;

  /// Registry model name (train and serve scenarios).
  std::string model = "BPRMF";
  /// Dataset preset name (train, serve, ckpt scenarios).
  std::string dataset = "music";
  /// Dataset scale factor, > 0.
  double scale = 1.0;
  /// Repeated trials; trial t reshifts every seed.
  int64_t trials = 1;
  /// Thread counts swept (train: TrainOptions::num_threads; serve: engine
  /// lanes). Each entry produces one artifact row.
  std::vector<int64_t> threads = {1};
  /// Training epochs (train scenario; serve uses it for the offline
  /// warm-up fit before the freeze). 0 asks the quality scenario for each
  /// preset's own budget (spelled "epochs": "preset" in a spec).
  int64_t epochs = 1;

  // Serve-scenario knobs.
  int64_t queries = 10000;
  int64_t batch = 256;
  int64_t k = 20;
  /// Cache configurations swept (off/on); each produces one row per
  /// thread count.
  std::vector<bool> cache = {false};

  // Serve-frontend-scenario knobs (batch/queries/k above also apply).
  /// Admission-queue bound (FrontendOptions::max_queue).
  int64_t queue_cap = 1024;
  /// Mid-stream reload modes swept ("none", "full", "delta"); each
  /// produces one row per thread count.
  std::vector<std::string> reloads = {"none"};

  // Ckpt-scenario knobs.
  std::vector<int64_t> dims = {8};
  int64_t reps = 5;

  // Micro-ops knobs: iterations per kernel and the kernels to run (empty =
  // all registered kernels; see exp::MicroKernelNames()).
  int64_t iters = 50;
  std::vector<std::string> kernels;

  // Quality-scenario knobs (scale, trials and epochs above also apply).
  /// Dataset presets swept; empty = just `dataset`.
  std::vector<std::string> datasets;
  /// "topk" (early-stops on Recall@20) or "ctr" (early-stops on AUC).
  std::string protocol = "topk";
  /// KG-corruption ratios in [0, 1) applied per trial; empty = clean KG.
  std::vector<double> ratios;
  /// Models trained per (dataset, trial, ratio), in row order.
  std::vector<VariantSpec> variants;
};

/// A named list of cases plus the base seed every case derives from.
struct ExperimentSpec {
  /// Lands in the artifact file name (BENCH_<name>.json): restricted to
  /// [A-Za-z0-9._-].
  std::string name;
  uint64_t seed = 17;
  std::vector<CaseSpec> cases;
};

/// Parses and validates a spec document. Unknown keys, unknown
/// scenario/model/dataset names, and out-of-range values all produce a
/// clean InvalidArgument Status (never a crash) naming the offending case.
Result<ExperimentSpec> ParseSpec(const obs::Json& json);

/// ParseSpec over a JSON string.
Result<ExperimentSpec> ParseSpecString(std::string_view text);

/// ParseSpec over a file.
Result<ExperimentSpec> ParseSpecFile(const std::string& path);

}  // namespace exp
}  // namespace cgkgr

#endif  // CGKGR_EXP_SPEC_H_
