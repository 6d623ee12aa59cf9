#ifndef CGKGR_BASELINES_CKE_H_
#define CGKGR_BASELINES_CKE_H_

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

/// CKE (Zhang et al., KDD 2016), structural-knowledge part: matrix
/// factorization regularized by TransR embeddings of the KG. The item
/// representation is the MF offset plus the item's entity embedding;
/// the KG is trained jointly with a TransR margin loss
/// (regularization-based method in the paper's taxonomy, Sec. V).
class Cke : public models::RecommenderModel {
 public:
  explicit Cke(const data::PresetHyperParams& hparams);

  std::string name() const override { return "CKE"; }

 protected:
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  autograd::Variable ItemRepr(const std::vector<int64_t>& items);

  /// Squared TransR plausibility ||h M_r + r - t M_r||^2 per triplet row.
  autograd::Variable TransRDistance(const std::vector<int64_t>& heads,
                                    const std::vector<int64_t>& relations,
                                    const std::vector<int64_t>& tails);

  data::PresetHyperParams hparams_;
  int64_t num_entities_ = 0;
  std::vector<graph::Triplet> kg_triplets_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> item_offset_table_;
  std::unique_ptr<nn::EmbeddingTable> entity_table_;
  autograd::Variable relation_vectors_;   // (R, d)
  autograd::Variable relation_matrices_;  // (R, d, d)
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_CKE_H_
