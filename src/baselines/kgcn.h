#ifndef CGKGR_BASELINES_KGCN_H_
#define CGKGR_BASELINES_KGCN_H_

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

/// KGCN (Wang et al., WWW 2019): item-side knowledge graph convolution.
/// Edge weights come from the target user's affinity to the edge relation,
/// pi(u, r) = softmax over neighbors of u . r; per layer the item entity
/// aggregates its weighted neighborhood with a sum aggregator
/// (ReLU inner layers, tanh final layer); score = u . v_i^(L).
class Kgcn : public models::RecommenderModel {
 public:
  explicit Kgcn(const data::PresetHyperParams& hparams, std::string name =
                                                            "KGCN");

  std::string name() const override { return name_; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  /// BCE over the batch; KGNN-LS adds its label-smoothness term.
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

  /// Scores for a sampled batch. When `ls_prediction` is non-null (used by
  /// the KGNN-LS subclass), the label-propagation estimate of the seed
  /// item's label is written there as a (B) Variable.
  autograd::Variable Forward(const std::vector<int64_t>& users,
                             const std::vector<int64_t>& items, Rng* rng,
                             autograd::Variable* ls_prediction);

  data::PresetHyperParams hparams_;
  std::string name_;
  std::unique_ptr<graph::InteractionGraph> train_graph_;
  std::unique_ptr<graph::KnowledgeGraph> kg_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> entity_table_;
  autograd::Variable relation_emb_;  // (R + 1, d)
  std::vector<std::unique_ptr<nn::Dense>> layers_;  // [0] = final hop
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_KGCN_H_
