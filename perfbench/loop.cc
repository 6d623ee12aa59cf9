#include "loop.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/timer.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "models/registry.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "probes.h"
#include "serve/delta.h"

namespace perfbench {

using cgkgr::Status;
using cgkgr::WallTimer;
namespace data = cgkgr::data;
namespace models = cgkgr::models;
namespace serve = cgkgr::serve;

namespace {

/// The model seed is part of the workload, not of its inputs: with it fixed,
/// one --seed always trains bit-identically at any lane count.
constexpr uint64_t kModelSeed = 1;

}  // namespace

cgkgr::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "pipeline") {
    // CG-KGR on movie: depth-2 KG flows and 256-row batches (16 shards)
    // put the time into training and the 218,400-pair export. Its short
    // serving phase runs over the small exported snapshot.
    spec.preset = "movie";
    spec.model = "CG-KGR";
    spec.epochs = 8;
    spec.auc_target = 0.62;
    spec.traffic_share = 0.5;
    spec.traffic.cache_capacity = 96;
    spec.traffic.hot_users = 16;
    spec.traffic.hot_share = 0.1;
    spec.traffic.publishes = 48;
    spec.traffic.open_rate_qps = 8000.0;
  } else if (name == "serve") {
    // BPRMF scores for 1440 users x 3360 items (music x8): the serving
    // stack and the delta path do nearly all the work.
    spec.preset = "music";
    spec.scale = 8.0;
    spec.model = "BPRMF";
    spec.epochs = 10;
    spec.auc_target = 0.72;
    spec.train_lanes = 1;
    spec.rounds = 6;
    spec.traffic_share = 1.0;
    spec.traffic.cache_capacity = 256;
    spec.traffic.hot_users = 32;
    spec.traffic.hot_share = 0.12;
    spec.traffic.publishes = 12;
    spec.traffic.open_rate_qps = 2500.0;
  } else {
    return Status::NotFound("unknown workload " + name +
                            " (expected pipeline or serve)");
  }
  return spec;
}

data::Dataset GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  cgkgr::obs::ScopedSpan span("bench/data.generate");
  const data::Preset preset = data::GetPreset(spec.preset, spec.scale);
  return data::GenerateSyntheticDataset(preset.data, seed);
}

std::unique_ptr<models::RecommenderModel> Construct(const WorkloadSpec& spec) {
  return models::CreateModel(spec.model,
                             data::GetPreset(spec.preset, spec.scale).hparams);
}

double FitResult::SamplesPerSecond() const {
  const double median = Median(epoch_seconds);
  return median > 0.0 ? static_cast<double>(train_rows) / median : 0.0;
}

FitResult Fit(const WorkloadSpec& spec, const data::Dataset& dataset,
              int64_t lanes, const std::string& ckpt_dir, Tally* tally) {
  FitResult result;
  result.model = Construct(spec);
  result.train_rows = static_cast<int64_t>(dataset.train.size());
  std::error_code ignored;
  std::filesystem::remove_all(ckpt_dir, ignored);
  std::filesystem::create_directories(ckpt_dir, ignored);

  models::TrainOptions options;
  options.max_epochs = spec.epochs;
  options.patience = spec.epochs + 1;  // train the whole budget
  options.batch_size =
      data::GetPreset(spec.preset, spec.scale).hparams.batch_size;
  options.num_threads = lanes;
  options.seed = kModelSeed;
  options.early_stop_metric = models::EarlyStopMetric::kAuc;
  options.run_label = spec.name;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.interval_epochs = 1;
  WallTimer since_callback;
  options.epoch_callback = [&](const models::EpochEvent& event) {
    if (event.epoch > 1) {
      result.gap_seconds.push_back(since_callback.ElapsedSeconds());
    }
    since_callback.Restart();
    result.epoch_seconds.push_back(event.epoch_seconds);
    if (result.epochs_to_target == 0 && event.eval_metric >= spec.auc_target) {
      result.epochs_to_target = event.epoch;
    }
    tally->Op(!event.checkpoint_file.empty(), "checkpoint publish");
    return true;
  };

  const double cpu_before = cgkgr::obs::ProcessStats::Sample().CpuSeconds();
  WallTimer wall;
  Status status;
  {
    cgkgr::obs::ScopedSpan span("bench/models.fit");
    status = result.model->Fit(dataset, options);
  }
  result.wall_seconds = wall.ElapsedSeconds();
  result.cpu_seconds =
      cgkgr::obs::ProcessStats::Sample().CpuSeconds() - cpu_before;
  tally->Op(status.ok(), "Fit: " + status.ToString());
  tally->Op(result.epochs_to_target > 0, "eval AUC reaches the target");
  result.best_eval = result.model->train_stats().best_eval_metric;
  std::filesystem::remove_all(ckpt_dir, ignored);
  return result;
}

ExportResult Export(models::RecommenderModel* model,
                    const data::Dataset& dataset, const std::string& path,
                    Tally* tally) {
  ExportResult result;
  WallTimer timer;
  auto snapshot = std::make_shared<serve::Snapshot>();
  {
    cgkgr::obs::ScopedSpan span("bench/serve.build_snapshot");
    *snapshot = serve::BuildSnapshot(model, dataset);
  }
  result.build_seconds = timer.ElapsedSeconds();
  timer.Restart();
  Status status;
  {
    cgkgr::obs::ScopedSpan span("bench/serve.save_snapshot");
    status = serve::SaveSnapshot(*snapshot, path);
  }
  result.save_seconds = timer.ElapsedSeconds();
  tally->Op(status.ok(), "SaveSnapshot: " + status.ToString());
  result.pairs = static_cast<int64_t>(snapshot->scores.size());
  std::error_code error;
  result.bytes = static_cast<int64_t>(std::filesystem::file_size(path, error));

  const bool finite =
      std::all_of(snapshot->scores.begin(), snapshot->scores.end(),
                  [](float score) { return std::isfinite(score); });
  tally->Check(finite, "every exported score is finite");
  cgkgr::Result<serve::Snapshot> loaded = serve::LoadSnapshot(path);
  tally->Op(loaded.ok() && serve::SnapshotFingerprint(loaded.value()) ==
                               serve::SnapshotFingerprint(*snapshot),
            "snapshot round-trip keeps its fingerprint");
  result.snapshot = std::move(snapshot);
  return result;
}

namespace {

/// Serves eval's pair scores from a frozen snapshot.
class SnapshotScorer : public cgkgr::eval::PairScorer {
 public:
  explicit SnapshotScorer(const serve::Snapshot& snapshot)
      : snapshot_(snapshot) {}

  void ScorePairs(const std::vector<int64_t>& users,
                  const std::vector<int64_t>& items,
                  std::vector<float>* out) override {
    out->resize(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      (*out)[i] = snapshot_.UserScores(users[i])[items[i]];
    }
  }

 private:
  const serve::Snapshot& snapshot_;
};

}  // namespace

Quality EvaluateQuality(const serve::Snapshot& snapshot,
                        const data::Dataset& dataset, Tally* tally) {
  std::vector<std::vector<int64_t>> mask = dataset.BuildTrainPositives();
  const std::vector<std::vector<int64_t>> eval_items =
      data::Dataset::BuildPositives(dataset.eval, dataset.num_users);
  for (size_t user = 0; user < mask.size(); ++user) {
    mask[user].insert(mask[user].end(), eval_items[user].begin(),
                      eval_items[user].end());
    std::sort(mask[user].begin(), mask[user].end());
  }
  SnapshotScorer scorer(snapshot);
  cgkgr::eval::TopKOptions options;
  options.ks = {20};
  cgkgr::eval::TopKResult topk;
  {
    cgkgr::obs::ScopedSpan span("bench/eval.quality");
    topk = cgkgr::eval::EvaluateTopK(&scorer, dataset, dataset.test, mask,
                                     options);
  }
  Quality quality;
  quality.recall_at_20 = topk.recall.at(20);
  quality.ndcg_at_20 = topk.ndcg.at(20);
  tally->Op(topk.evaluated_users > 0 && std::isfinite(quality.recall_at_20) &&
                std::isfinite(quality.ndcg_at_20),
            "test-split quality");
  return quality;
}

}  // namespace perfbench
