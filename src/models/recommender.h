#ifndef CGKGR_MODELS_RECOMMENDER_H_
#define CGKGR_MODELS_RECOMMENDER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "analysis/tape_lint.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "eval/protocol.h"
#include "nn/adam.h"
#include "nn/parameter.h"

namespace cgkgr {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace models {

struct TrainBatch;

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

/// Common skeleton of CG-KGR and all baselines: train on a dataset, then
/// score arbitrary (user, item) pairs. The base owns everything around a
/// model's equations — the parameter store, Prepare, the Adam +
/// ParallelTrainer + RunTrainingLoop wiring of Fit, chunked ScorePairs,
/// and persistence. A model supplies only its math: Build, BatchLoss and
/// ScoreChunk (plus OnEpochStart for a staged schedule). Fit restores the
/// best-epoch parameters before it returns.
class RecommenderModel : public eval::PairScorer {
 public:
  RecommenderModel(const RecommenderModel&) = delete;
  RecommenderModel& operator=(const RecommenderModel&) = delete;
  ~RecommenderModel() override;

  /// Display/registry name ("CG-KGR", "BPRMF", ...).
  virtual std::string name() const = 0;

  /// Builds graphs and seed-initialized parameters without training. Fit
  /// calls this first; call it directly before LoadState() /
  /// models::LoadModelState() to restore a trained model without
  /// retraining. Scoring then runs inline (one lane).
  Status Prepare(const data::Dataset& dataset, uint64_t seed);

  /// Prepares with options.seed, then trains on dataset.train with Adam
  /// (the model's learning rate and L2) on options.num_threads lanes,
  /// early-stopping against dataset.eval. The same lanes serve later
  /// ScorePairs calls of models that score in parallel (CG-KGR).
  Status Fit(const data::Dataset& dataset, const TrainOptions& options);

  /// Scores the pairs in chunks of kScoreChunkPairs without gradients,
  /// drawing any inference sampling from a stream reseeded from the eval
  /// seed on every call, so identical calls on an identical model score
  /// identically. Requires a prepared or fitted model; every user and item
  /// id must lie in the prepared dataset's range (CHECKed once per call,
  /// before any ScoreChunk).
  void ScorePairs(const std::vector<int64_t>& users,
                  const std::vector<int64_t>& items,
                  std::vector<float>* out) final;

  /// Serializes the parameters, in creation order, under one
  /// "model/<name>" section. This is the single persistence surface for
  /// every model — trainer checkpoints, standalone model files
  /// (SaveModelState), and serve-side export all go through it. Requires a
  /// prepared or fitted model. There is no inference RNG state to write:
  /// ScorePairs reseeds per call.
  void SaveState(ckpt::Writer* writer) const;

  /// Restores state written by SaveState into a model that was prepared
  /// identically (same hyper-parameters, dataset dimensions and seed;
  /// names and shapes are validated).
  Status LoadState(ckpt::Reader* reader);

  /// Training statistics of the last Fit().
  const TrainStats& train_stats() const { return stats_; }

 protected:
  /// Pairs per ScoreChunk call. Fixed, so a call's sampling stream never
  /// depends on anything but the pairs it is given.
  static constexpr int64_t kScoreChunkPairs = 1024;

  /// One batch of training pairs, positives then negatives, labelled 1
  /// then 0: the input of the pointwise BCE losses (Eq. 22 with
  /// |Y+| = |Y-|).
  struct LabelledPairs {
    std::vector<int64_t> users;
    std::vector<int64_t> items;
    std::vector<float> labels;
  };

  /// `learning_rate` and `l2` configure Fit's Adam optimizer; ScorePairs
  /// reseeds its stream from (Prepare seed ^ `eval_salt`).
  RecommenderModel(float learning_rate, float l2, uint64_t eval_salt = 0);

  /// Creates the model's graphs and parameters in store_ (empty on entry)
  /// from the dataset and seed. Every RNG draw must come from streams
  /// seeded here, so Prepare(dataset, seed) always rebuilds the same
  /// model.
  virtual Status Build(const data::Dataset& dataset, uint64_t seed) = 0;

  /// The (scalar, per-row mean) training loss of one shard batch. Runs
  /// concurrently on the training lanes: it must only read shared model
  /// state and draw all randomness from `rng`.
  virtual autograd::Variable BatchLoss(const TrainBatch& batch,
                                       Rng* rng) = 0;

  /// Writes the scores of at most kScoreChunkPairs aligned pairs to `out`.
  /// Runs under NoGradGuard on the calling thread; `rng` is the call's
  /// inference stream, shared by its chunks in order. Every id is already
  /// in range.
  virtual void ScoreChunk(std::span<const int64_t> users,
                          std::span<const int64_t> items, Rng* rng,
                          std::span<float> out) = 0;

  /// Called before each training epoch with its 1-based number (the loop's
  /// true epoch, so a staged schedule survives a checkpoint resume);
  /// returns the tape-lint options for that epoch's shards.
  virtual analysis::TapeLintOptions OnEpochStart(int64_t epoch);

  /// `batch` as labelled positives-then-negatives pairs.
  static LabelledPairs LabelPairs(const TrainBatch& batch);

  /// True once Prepare (or Fit) has built the model.
  bool prepared() const { return prepared_; }

  /// Lanes ScoreChunk may spread over: 1 after Prepare,
  /// TrainOptions::num_threads after Fit.
  int64_t score_lanes() const { return score_lanes_; }

  nn::ParameterStore store_;

 private:
  TrainStats stats_;
  nn::AdamOptions adam_;
  const uint64_t eval_salt_;
  bool prepared_ = false;
  /// The prepared dataset's id ranges, which ScorePairs enforces.
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  uint64_t eval_seed_ = 0;
  int64_t score_lanes_ = 1;
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
