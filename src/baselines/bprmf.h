#ifndef CGKGR_BASELINES_BPRMF_H_
#define CGKGR_BASELINES_BPRMF_H_

#include <memory>
#include <span>
#include <string>

#include "data/presets.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace baselines {

/// BPRMF (Rendle et al., UAI 2009): matrix factorization trained with the
/// Bayesian personalized ranking criterion. The paper's strongest KG-free
/// baseline on several datasets (Sec. IV-B).
class BprMf : public models::RecommenderModel {
 public:
  explicit BprMf(const data::PresetHyperParams& hparams);

  std::string name() const override { return "BPRMF"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  data::PresetHyperParams hparams_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> item_table_;
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_BPRMF_H_
