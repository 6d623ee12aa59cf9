#ifndef CGKGR_BASELINES_KGNN_LS_H_
#define CGKGR_BASELINES_KGNN_LS_H_

#include <string>

#include "baselines/kgcn.h"

namespace cgkgr {
namespace baselines {

/// KGNN-LS (Wang et al., KDD 2019): the KGCN architecture plus a label
/// smoothness regularizer. The seed item's label is held out and predicted
/// by propagating the (clamped) ground-truth labels of its sampled KG
/// neighbors through the same attention weights; the squared error of that
/// prediction against the pair's true label is added to the loss.
class KgnnLs : public Kgcn {
 public:
  explicit KgnnLs(const data::PresetHyperParams& hparams);

 protected:
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;

 private:
  /// Weight of the label-smoothness term.
  float ls_weight_ = 0.5f;
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_KGNN_LS_H_
