#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

// The offline half of the loop every perfbench workload runs: generate the
// inputs, train with per-epoch eval and checkpoints, export a score
// snapshot, and measure the quality it would serve.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/presets.h"
#include "models/recommender.h"
#include "serve/snapshot.h"
#include "traffic.h"

namespace perfbench {

/// One workload: which model on which preset, how long it trains, the AUC
/// it must reach, and the serving traffic that follows.
struct WorkloadSpec {
  std::string name;
  std::string preset;
  double scale = 1.0;
  std::string model;  // models::CreateModel registry name
  int64_t epochs = 10;
  double auc_target = 0.7;
  int64_t train_lanes = 2;
  /// Rounds of fit -> export -> quality -> traffic in an end-to-end run; more
  /// rounds spread short phases over more of the run.
  int rounds = 3;
  /// Share of --seconds spent in serving traffic (sync client, then the
  /// closed loop), split evenly over the rounds.
  double traffic_share = 1.0;
  TrafficOptions traffic;
};

/// `pipeline` and `serve`; NotFound for other names.
cgkgr::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// The preset's fixed world, split by `seed`: the only input that varies.
cgkgr::data::Dataset GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

std::unique_ptr<cgkgr::models::RecommenderModel> Construct(
    const WorkloadSpec& spec);

struct FitResult {
  std::unique_ptr<cgkgr::models::RecommenderModel> model;
  std::vector<double> epoch_seconds;  // EpochEvent::epoch_seconds
  /// Wall time between successive epoch callbacks (train + eval +
  /// checkpoint); one fewer than the epochs.
  std::vector<double> gap_seconds;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double best_eval = 0.0;
  int64_t epochs_to_target = 0;  // 0 when the target was missed
  int64_t train_rows = 0;

  /// Train rows / median epoch time.
  double SamplesPerSecond() const;
};

/// Fits with the spec's epoch budget at `lanes`, eval AUC every epoch and a
/// checkpoint into `ckpt_dir` every epoch.
FitResult Fit(const WorkloadSpec& spec, const cgkgr::data::Dataset& dataset,
              int64_t lanes, const std::string& ckpt_dir, Tally* tally);

struct ExportResult {
  std::shared_ptr<const cgkgr::serve::Snapshot> snapshot;
  double build_seconds = 0.0;
  double save_seconds = 0.0;
  int64_t bytes = 0;
  int64_t pairs = 0;
};

/// BuildSnapshot + SaveSnapshot to `path`, then checks that every score is
/// finite and that the file reloads with an equal fingerprint.
ExportResult Export(cgkgr::models::RecommenderModel* model,
                    const cgkgr::data::Dataset& dataset,
                    const std::string& path, Tally* tally);

struct Quality {
  double recall_at_20 = 0.0;
  double ndcg_at_20 = 0.0;
};

/// Recall@20 / NDCG@20 on the test split, train and eval items masked,
/// ranked from the snapshot's scores.
Quality EvaluateQuality(const cgkgr::serve::Snapshot& snapshot,
                        const cgkgr::data::Dataset& dataset, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
