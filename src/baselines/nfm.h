#ifndef CGKGR_BASELINES_NFM_H_
#define CGKGR_BASELINES_NFM_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/presets.h"
#include "models/recommender.h"
#include "nn/dense.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace baselines {

/// NFM (He & Chua, SIGIR 2017): neural factorization machine. With user-id
/// and item-id features the bi-interaction layer reduces to the Hadamard
/// product of their embeddings, fed through an MLP, plus first-order bias
/// terms: y = w0 + b_u + b_i + MLP(e_u . e_i).
class Nfm : public models::RecommenderModel {
 public:
  explicit Nfm(const data::PresetHyperParams& hparams);

  std::string name() const override { return "NFM"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  autograd::Variable Forward(const std::vector<int64_t>& users,
                             const std::vector<int64_t>& items);

  data::PresetHyperParams hparams_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> item_table_;
  autograd::Variable user_bias_;  // (num_users, 1)
  autograd::Variable item_bias_;  // (num_items, 1)
  autograd::Variable global_bias_;  // (1)
  std::unique_ptr<nn::Dense> hidden_;
  std::unique_ptr<nn::Dense> output_;
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_NFM_H_
