#ifndef CGKGR_BASELINES_RIPPLENET_H_
#define CGKGR_BASELINES_RIPPLENET_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/presets.h"
#include "graph/knowledge_graph.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace baselines {

/// RippleNet (Wang et al., CIKM 2018): represents each user by "ripple
/// sets" — fixed-size samples of KG triplets reachable from the user's
/// interacted items — and scores items by attention of the item embedding
/// over those triplets: p_j ~ softmax(v^T R_{r_j} h_j), o_h = sum p_j t_j,
/// y = sigma((sum_h o_h)^T v).
class RippleNet : public models::RecommenderModel {
 public:
  explicit RippleNet(const data::PresetHyperParams& hparams);

  std::string name() const override { return "RippleNet"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  /// Per-user, per-hop fixed-size triplet memory.
  struct RippleSet {
    std::vector<int64_t> heads;
    std::vector<int64_t> relations;
    std::vector<int64_t> tails;
  };

  autograd::Variable Forward(const std::vector<int64_t>& users,
                             const std::vector<int64_t>& items);

  data::PresetHyperParams hparams_;
  int64_t num_hops_ = 2;
  int64_t memory_size_ = 16;
  /// ripple_sets_[user][hop]
  std::vector<std::vector<RippleSet>> ripple_sets_;
  std::unique_ptr<nn::EmbeddingTable> entity_table_;
  autograd::Variable relation_matrices_;  // (R + 1, d, d)
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_RIPPLENET_H_
