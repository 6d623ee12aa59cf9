#ifndef CGKGR_MODELS_RECOMMENDER_H_
#define CGKGR_MODELS_RECOMMENDER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "eval/protocol.h"

namespace cgkgr {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace models {

/// Which eval-split metric drives early stopping. The paper tunes per
/// task: ranking runs stop on Recall@20, CTR runs on AUC.
enum class EarlyStopMetric { kAuc, kRecallAt20 };

/// Crash-safe checkpointing knobs, nested in TrainOptions. When enabled()
/// the training loop publishes an atomic, CRC-validated checkpoint of the
/// full trainer state (parameters, Adam moments, RNG streams, epoch
/// cursors, best-epoch snapshot) every `interval_epochs` epochs and on a
/// clean-shutdown signal; `resume` continues a killed run bit-exactly.
/// See docs/checkpointing.md.
struct CheckpointOptions {
  /// Checkpoint directory (must exist). Empty disables checkpointing; the
  /// CGKGR_CKPT_DIR environment variable supplies a process-wide default
  /// when this field is empty.
  std::string directory;
  /// Publish a checkpoint every this many epochs (>= 1).
  int64_t interval_epochs = 1;
  /// Retention: keep this many newest checkpoints (<= 0 keeps all) ...
  int64_t keep_last = 3;
  /// ... plus the checkpoint with the best eval metric.
  bool keep_best = true;
  /// Resume from the newest valid checkpoint in `directory` before
  /// training (fresh start with a logged notice when none validates).
  /// The CGKGR_CKPT_RESUME environment variable (any non-empty value)
  /// supplies a process-wide default when this field is false.
  bool resume = false;

  /// True when a checkpoint directory is configured.
  bool enabled() const { return !directory.empty(); }
};

/// Per-epoch observation handed to TrainOptions::epoch_callback after the
/// epoch's eval (and after any checkpoint publish).
struct EpochEvent {
  /// 1-based epoch that just finished.
  int64_t epoch = 0;
  double loss = 0.0;
  double eval_metric = 0.0;
  double epoch_seconds = 0.0;
  /// True when this epoch improved the early-stopping metric.
  bool improved = false;
  /// Path of the checkpoint published for this epoch (empty when none).
  std::string checkpoint_file;
};

/// Return false to stop training cleanly after the current epoch (the
/// best-epoch snapshot is still restored, stats are still finalized).
using EpochCallback = std::function<bool(const EpochEvent&)>;

/// Knobs shared by every model's training loop.
struct TrainOptions {
  int64_t max_epochs = 12;
  /// Early stopping: stop after this many epochs without eval improvement
  /// (the paper uses 10 on full-size datasets; presets use less).
  int64_t patience = 3;
  int64_t batch_size = 128;
  /// Lanes for the data-parallel trainer (models::ParallelTrainer): shards
  /// of each mini-batch run forward/backward concurrently, with a
  /// deterministic fixed-order gradient reduction before the Adam step.
  /// After Fit, the same lanes serve CG-KGR inference (its per-epoch eval
  /// and every later ScorePairs call). Results are bit-identical for any
  /// value given the same seed; 1 runs fully inline. See
  /// docs/parallel_training.md.
  int64_t num_threads = 1;
  uint64_t seed = 1;
  EarlyStopMetric early_stop_metric = EarlyStopMetric::kAuc;
  /// Cap on eval-split CTR examples used for per-epoch early stopping.
  int64_t eval_max_examples = 4000;
  /// Users sampled for per-epoch Recall@20 early stopping.
  int64_t eval_topk_users = 60;
  bool verbose = false;
  /// Debug flag: run analysis::LintTape on every recorded loss tape before
  /// its backward pass (fatal on violations). Also enabled globally by
  /// setting the CGKGR_LINT_TAPE environment variable; see
  /// docs/static_analysis.md.
  bool lint_tape = false;
  /// When non-empty, the training loop appends one JSON object per epoch
  /// (dataset, model, epoch, loss, eval_metric, epoch_seconds,
  /// samples_per_sec) to this JSONL file — the learning-curve feed; see
  /// docs/observability.md. The CGKGR_METRICS_JSONL environment variable
  /// supplies a process-wide default when this field is empty.
  std::string metrics_jsonl;
  /// Model tag stamped into JSONL rows and metric labels ("cgkgr",
  /// "bprmf", ...); empty renders as "model".
  std::string run_label;
  /// Crash-safe checkpointing + exact resume (see CheckpointOptions).
  CheckpointOptions checkpoint;
  /// Invoked after every epoch's eval; return false to stop training
  /// cleanly. Empty = never called.
  EpochCallback epoch_callback;
};

/// Outcome bookkeeping of a Fit() call (feeds the paper's Table VI).
struct TrainStats {
  int64_t epochs_run = 0;
  /// 1-based epoch with the best eval metric (the paper's "be").
  int64_t best_epoch = 0;
  double seconds_per_epoch = 0.0;
  double total_seconds = 0.0;
  /// Eval-split metric value at the best epoch (AUC or Recall@20,
  /// whichever drove early stopping).
  double best_eval_metric = 0.0;
  std::vector<double> epoch_losses;
  /// True when the run ended early on a clean-shutdown signal
  /// (ckpt::ShutdownRequested) rather than max_epochs / early stopping.
  bool interrupted = false;
  /// Epochs replayed from a checkpoint rather than trained in this
  /// process (0 for a fresh run).
  int64_t resumed_epochs = 0;
};

/// Common interface for CG-KGR and all baselines: train on a dataset, then
/// score arbitrary (user, item) pairs. Implementations restore their
/// best-epoch parameters before Fit() returns.
class RecommenderModel : public eval::PairScorer {
 public:
  ~RecommenderModel() override = default;

  /// Display/registry name ("CG-KGR", "BPRMF", ...).
  virtual std::string name() const = 0;

  /// Trains on dataset.train, early-stopping against dataset.eval.
  virtual Status Fit(const data::Dataset& dataset,
                     const TrainOptions& options) = 0;

  /// Serializes the model's trained state (parameters plus any stateful
  /// inference RNG) into `writer`. This is the single persistence surface
  /// for every model — trainer checkpoints, standalone model files
  /// (SaveModelState), and serve-side export all go through it. Requires a
  /// fitted/prepared model.
  virtual void SaveState(ckpt::Writer* writer) const = 0;

  /// Restores state written by SaveState into a model that was
  /// constructed/prepared identically (same hyper-parameters and dataset
  /// dimensions; names and shapes are validated).
  virtual Status LoadState(ckpt::Reader* reader) = 0;

  /// Training statistics of the last Fit().
  const TrainStats& train_stats() const { return stats_; }

 protected:
  TrainStats stats_;
};

/// Writes `model`'s SaveState output to `path` as a framed, CRC-validated
/// checkpoint file (atomic publish).
Status SaveModelState(const RecommenderModel& model, const std::string& path);

/// Loads a file written by SaveModelState into `model` (which must be
/// prepared identically first). All corruption surfaces as a Status.
Status LoadModelState(RecommenderModel* model, const std::string& path);

}  // namespace models
}  // namespace cgkgr

#endif  // CGKGR_MODELS_RECOMMENDER_H_
