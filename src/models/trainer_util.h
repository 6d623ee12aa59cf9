#ifndef CGKGR_MODELS_TRAINER_UTIL_H_
#define CGKGR_MODELS_TRAINER_UTIL_H_

#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "models/recommender.h"
#include "nn/parameter.h"

namespace cgkgr {

namespace nn {
class AdamOptimizer;
}  // namespace nn

namespace models {

/// One shuffled mini-batch of training pairs with freshly resampled
/// negatives (the paper's |Y+| = |Y-| protocol with on-the-fly updates).
struct TrainBatch {
  std::vector<int64_t> users;
  std::vector<int64_t> positive_items;
  std::vector<int64_t> negative_items;
};

/// L2 norm across every parameter gradient in `store` (the train_grad_norm
/// gauge's source; ParallelTrainer samples it after gradients are final).
double GradientNorm(const nn::ParameterStore& store);

/// True when tape linting is on for this run: either the per-run
/// TrainOptions::lint_tape debug flag or the CGKGR_LINT_TAPE environment
/// variable (checked once per process).
bool TapeLintEnabled(const TrainOptions& options);

/// One training pass over the data: `run_epoch(epoch, epoch_rng)` is handed
/// the 1-based epoch number (so staged schedules like KGAT's warm-up epoch
/// stay correct across a checkpoint resume — a captured local counter would
/// restart at zero) and a freshly forked epoch RNG, and returns the mean
/// batch loss.
using RunEpochFn = std::function<double(int64_t epoch, Rng* epoch_rng)>;

/// Shared training-loop skeleton: runs `run_epoch` up to max_epochs times,
/// evaluates the eval split after every epoch via `model` (the scorer),
/// keeps the best-epoch parameter snapshot of `store`, early-stops after
/// `patience` non-improving epochs, restores the best snapshot, and fills
/// `stats` (loss curve, time per epoch, best epoch).
///
/// When `options.checkpoint` is enabled the loop publishes an atomic
/// checkpoint of the full trainer state — `store` parameters (via
/// model->SaveState), `optimizer` moments, the training RNG stream, epoch
/// cursors, the loss curve, and the best-epoch snapshot — every
/// `interval_epochs` epochs and on exit, maintains the directory MANIFEST
/// with retention, and (with `resume`) continues from the newest valid
/// checkpoint bit-exactly: a run SIGKILLed mid-training and resumed
/// produces the same final parameters and loss curve as an uninterrupted
/// one, at any num_threads. See docs/checkpointing.md.
///
/// A clean-shutdown signal (ckpt::ShutdownRequested) or an epoch_callback
/// returning false ends the run after the current epoch with stats
/// finalized (and `interrupted` set for the former).
Status RunTrainingLoop(RecommenderModel* model, nn::ParameterStore* store,
                       nn::AdamOptimizer* optimizer,
                       const data::Dataset& dataset,
                       const TrainOptions& options,
                       const RunEpochFn& run_epoch, TrainStats* stats);

}  // namespace models
}  // namespace cgkgr

#endif  // CGKGR_MODELS_TRAINER_UTIL_H_
