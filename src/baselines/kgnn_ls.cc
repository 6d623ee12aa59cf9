#include "baselines/kgnn_ls.h"

#include "autograd/ops.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;

/// Label smoothness needs at least 2 hops to reach item nodes again (items
/// connect to entities, and entities back to other items), so the LS
/// receptive field is widened on shallow presets.
data::PresetHyperParams WithMinLsDepth(data::PresetHyperParams hparams) {
  hparams.depth = std::max<int64_t>(2, hparams.depth);
  return hparams;
}

}  // namespace

KgnnLs::KgnnLs(const data::PresetHyperParams& hparams)
    : Kgcn(WithMinLsDepth(hparams), "KGNN-LS") {}

Variable KgnnLs::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  LabelledPairs pairs = LabelPairs(batch);
  Variable ls_prediction;
  Variable scores = Forward(pairs.users, pairs.items, rng, &ls_prediction);

  // Squared-error label smoothness: the propagated label estimate of each
  // held-out seed should match the pair's true label.
  Variable targets = autograd::Constant(tensor::Tensor(
      {static_cast<int64_t>(pairs.labels.size())}, pairs.labels));
  Variable residual = autograd::Sub(ls_prediction, targets);
  Variable ls_loss = autograd::Mean(autograd::Mul(residual, residual));

  Variable bce = autograd::BCEWithLogits(scores, std::move(pairs.labels));
  return autograd::Add(bce, autograd::Scale(ls_loss, ls_weight_));
}

}  // namespace baselines
}  // namespace cgkgr
