#ifndef CGKGR_BASELINES_CKAN_H_
#define CGKGR_BASELINES_CKAN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/presets.h"
#include "graph/sampler.h"
#include "models/recommender.h"
#include "nn/dense.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace baselines {

/// CKAN (Wang et al., SIGIR 2020): heterogeneous propagation. The user is
/// represented by attention-pooled KG expansions of their interacted items
/// (collaborative propagation seeds the knowledge propagation); the item by
/// expansions of itself. Triplet attention is an MLP over [h || r || t]
/// softmaxed over each hop's whole triplet set; representations are the
/// seed average plus the per-hop pooled tails; score is the inner product.
class Ckan : public models::RecommenderModel {
 public:
  explicit Ckan(const data::PresetHyperParams& hparams);

  std::string name() const override { return "CKAN"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  autograd::Variable Forward(const std::vector<int64_t>& users,
                             const std::vector<int64_t>& items, Rng* rng);

  /// Attention-pooled hop representations summed into `base`.
  /// `per_root` = number of flow roots per batch element.
  autograd::Variable PropagateHops(const graph::NodeFlow& flow,
                                   autograd::Variable base, int64_t per_root,
                                   int64_t batch);

  data::PresetHyperParams hparams_;
  int64_t depth_ = 1;
  std::unique_ptr<graph::InteractionGraph> train_graph_;
  std::unique_ptr<graph::KnowledgeGraph> kg_;
  std::unique_ptr<nn::EmbeddingTable> entity_table_;
  autograd::Variable relation_emb_;  // (R + 1, d)
  std::unique_ptr<nn::Dense> att_hidden_;  // (3d -> d), LeakyReLU
  std::unique_ptr<nn::Dense> att_out_;     // (d -> 1)
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_CKAN_H_
