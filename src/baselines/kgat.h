#ifndef CGKGR_BASELINES_KGAT_H_
#define CGKGR_BASELINES_KGAT_H_

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

/// KGAT (Wang et al., KDD 2019): graph attention over the *unified* graph
/// of users, items, and KG entities (interaction edges carry the extra
/// relation r*). Per layer, a node aggregates its sampled neighborhood with
/// TransR-style attention pi(h,r,t) = (W_r t)^T tanh(W_r h + e_r) and a
/// bi-interaction aggregator; training alternates a BPR ranking loss with a
/// TransR embedding loss. As the paper recommends, the CF embeddings are
/// pre-trained with plain BPRMF updates (first epoch).
///
/// Simplification vs. the original: propagation runs over fixed-size
/// sampled neighborhoods (node flows) instead of the full adjacency, and
/// the final representation is the root output of the depth-L propagation
/// rather than a concatenation of per-layer outputs (documented in
/// DESIGN.md).
class Kgat : public models::RecommenderModel {
 public:
  explicit Kgat(const data::PresetHyperParams& hparams);

  std::string name() const override { return "KGAT"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;
  /// Epoch 1 is the BPRMF-style warm start, whose bi-interaction layers
  /// are declared frozen for the tape lint.
  analysis::TapeLintOptions OnEpochStart(int64_t epoch) override;

 private:
  /// Node id of a user in the unified graph (entities come first).
  int64_t UserNode(int64_t user) const { return num_entities_ + user; }

  /// Depth-L attentive propagation for a batch of unified-graph node ids;
  /// returns the root representations (n, d).
  autograd::Variable Propagate(const std::vector<int64_t>& nodes, Rng* rng);

  /// TransR distance for unified-graph triplets.
  autograd::Variable TransRDistance(const std::vector<int64_t>& heads,
                                    const std::vector<int64_t>& relations,
                                    const std::vector<int64_t>& tails);

  data::PresetHyperParams hparams_;
  /// True during the warm-up epoch (set by OnEpochStart).
  bool pretrain_ = false;
  int64_t num_entities_ = 0;
  int64_t num_users_ = 0;
  std::unique_ptr<graph::KnowledgeGraph> unified_;
  std::vector<graph::Triplet> unified_triplets_;
  std::unique_ptr<nn::EmbeddingTable> node_table_;  // entities then users
  autograd::Variable relation_emb_;       // (R + 2, d)
  autograd::Variable relation_matrices_;  // (R + 2, d, d)
  std::vector<std::unique_ptr<nn::Dense>> w1_;  // bi-interaction, per hop
  std::vector<std::unique_ptr<nn::Dense>> w2_;
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_KGAT_H_
