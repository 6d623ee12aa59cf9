#ifndef CGKGR_MODELS_PARALLEL_TRAINER_H_
#define CGKGR_MODELS_PARALLEL_TRAINER_H_

#include <functional>
#include <vector>

#include "analysis/tape_lint.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "models/recommender.h"
#include "models/trainer_util.h"
#include "nn/adam.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace cgkgr {
namespace models {

/// Data-parallel epoch driver of RecommenderModel::Fit: splits each
/// mini-batch into fixed-size row shards, runs forward/backward per shard on
/// the pool (each shard on its own autograd tape, with parameter gradients
/// redirected into shard-private buffers via autograd::GradSinkGuard),
/// combines shard gradients with a fixed-order pairwise tree reduction, and
/// applies one Adam step per batch.
///
/// Determinism contract: for a fixed TrainOptions::seed, training is
/// bit-identical for every value of TrainOptions::num_threads. This holds
/// because nothing in the schedule depends on the thread count:
///   - the shard plan is a function of batch size only (kShardRows rows per
///     shard, regardless of lanes);
///   - RNG streams are forked in shard-index order from a per-batch fork of
///     the epoch stream (epoch_rng -> batch_rng -> shard_rngs[0..S)), so a
///     shard draws the same negatives and sampler paths no matter which lane
///     runs it, or when;
///   - shard gradients land in per-shard buffers (no write ever races or
///     interleaves), and the tree reduction combines them in shard-index
///     order with a fixed association;
///   - the Adam update is elementwise independent, so parallelizing it over
///     element chunks reassociates nothing.
///
/// The shard decomposition is exact for every loss in the zoo: each model's
/// loss is a per-row mean over shard rows, so the batch loss (and batch
/// gradient) is the shard-row-weighted sum of shard losses (gradients),
/// which the reduction computes explicitly.
class ParallelTrainer {
 public:
  /// Computes the (scalar, per-row mean) training loss for one shard.
  /// Invoked concurrently from pool lanes: implementations must only read
  /// shared model state, and must draw all randomness from `rng` (the
  /// shard-private stream).
  using LossFn =
      std::function<autograd::Variable(const TrainBatch&, Rng*)>;

  /// `store` and `optimizer` must outlive the trainer. The pool is sized
  /// from options.num_threads (1 = fully inline, an exact serial run).
  ParallelTrainer(const TrainOptions& options, nn::ParameterStore* store,
                  nn::AdamOptimizer* optimizer);

  /// Runs one epoch over `train` (shuffled with `epoch_rng`) and returns the
  /// mean batch loss. `lint_options` is forwarded to the per-shard tape lint
  /// when TapeLintEnabled(options) — staged schedules (e.g. KGAT's warm-up)
  /// pass their per-epoch expected_frozen set here.
  double RunEpoch(const std::vector<graph::Interaction>& train,
                  const std::vector<std::vector<int64_t>>& all_positives,
                  int64_t num_items, Rng* epoch_rng, const LossFn& loss_fn,
                  const analysis::TapeLintOptions& lint_options = {});

  /// Lanes used for shard execution (>= 1).
  int64_t num_threads() const { return pool_.num_threads(); }

 private:
  /// Per-shard execution state, reused across batches. The grad buffers are
  /// parallel to store->parameters() and zeroed by the shard task before its
  /// backward pass.
  struct ShardSlot {
    std::vector<tensor::Tensor> grads;
    autograd::GradSinkGuard::OverrideMap overrides;
    Rng rng{0};
    double loss = 0.0;
    double micros = 0.0;
    int64_t rows = 0;
  };

  void EnsureSlots(int64_t count);
  /// Folds slots_[0..num_shards) into the parameter gradients:
  /// grad += sum_s (rows_s / batch_rows) * slot_grads_s, combined pairwise
  /// in shard-index order. Parallel over parameters (each is independent).
  void ReduceShardGrads(int64_t num_shards, int64_t batch_rows);

  TrainOptions options_;
  nn::ParameterStore* store_;
  nn::AdamOptimizer* optimizer_;
  ThreadPool pool_;
  std::vector<autograd::Variable> params_;
  std::vector<ShardSlot> slots_;
  int64_t batch_counter_ = 0;

  obs::Counter* batches_total_;
  obs::Counter* samples_total_;
  obs::Gauge* threads_gauge_;
  obs::Gauge* grad_norm_gauge_;
  obs::Histogram* imbalance_micros_;
};

}  // namespace models
}  // namespace cgkgr

#endif  // CGKGR_MODELS_PARALLEL_TRAINER_H_
