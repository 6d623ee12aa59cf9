#ifndef CGKGR_CORE_CGKGR_MODEL_H_
#define CGKGR_CORE_CGKGR_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "core/cgkgr_config.h"
#include "graph/sampler.h"
#include "models/recommender.h"
#include "nn/dense.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace core {

/// The paper's model: attentive Knowledge-aware Graph convolutional network
/// with Collaborative Guidance (CG-KGR).
///
/// Pipeline per target pair (u, i), following Algorithm 1:
///  1. Interactive summarization: multi-head collaboration attention over
///     sampled S(u) and S_UI(i) (Eqs. 1-5), aggregated with g (Eq. 6).
///  2. Guidance encoding: f(v_u, v_i) (Eqs. 10-12).
///  3. Knowledge extraction: depth-L node flow over the KG; per hop,
///     guidance-biased knowledge-aware attention (Eqs. 13-15, 19) pools
///     neighbor embeddings (Eqs. 16, 18) which g merges into the parent
///     (Eqs. 17, 20).
///  4. Score y_hat = v_u . v_i^u (Eq. 21); training minimizes balanced
///     binary cross-entropy with L2 (Eq. 22).
///
/// Ablation variants (Tables VII/VIII) are switches on CgKgrConfig.
class CgKgrModel : public models::RecommenderModel {
 public:
  explicit CgKgrModel(CgKgrConfig config, std::string name = "CG-KGR");
  ~CgKgrModel() override;

  std::string name() const override { return name_; }

  /// Hop-1 knowledge attention of a single (user, item) pair, for the
  /// paper's Fig. 5 case study. Requires a fitted model and depth >= 1.
  struct AttentionInspection {
    std::vector<int64_t> entities;
    std::vector<int64_t> relations;
    /// Normalized weights averaged over heads, aligned with `entities`.
    std::vector<float> weights;
  };
  AttentionInspection InspectKnowledgeAttention(int64_t user, int64_t item,
                                                uint64_t seed);

 protected:
  /// Returns InvalidArgument when inference_samples < 1 or a switched-on
  /// stage samples fewer than one neighbor (user_sample_size and
  /// item_sample_size with interactive summarization, kg_sample_size with
  /// depth >= 1); a switched-off stage accepts any value.
  Status Build(const data::Dataset& dataset, uint64_t seed) override;
  autograd::Variable BatchLoss(const models::TrainBatch& batch,
                               Rng* rng) override;
  /// Runs the scoring forward (ScoreRows) over fixed 64-row slices of every
  /// inference pass on the model's score lanes. The calling thread draws
  /// pass 0, the lanes start on it while one lane draws the later passes in
  /// order, and slices are claimed one at a time. Scores are bit-identical
  /// to Forward's at any lane count; see docs/parallel_training.md
  /// ("Parallel inference"). Calls from several threads take turns, one
  /// chunk at a time.
  void ScoreChunk(std::span<const int64_t> users,
                  std::span<const int64_t> items, Rng* rng,
                  std::span<float> out) override;

 private:
  /// All sampled structure needed to run one batched forward pass.
  struct BatchGraph {
    std::vector<int64_t> users;
    std::vector<int64_t> items;
    std::vector<int64_t> user_neighbors;  // |users| * user_sample_size items
    std::vector<int64_t> item_neighbors;  // |items| * item_sample_size users
    graph::NodeFlow flow;                  // seeded at `items`
  };

  BatchGraph SampleBatch(const std::vector<int64_t>& users,
                         const std::vector<int64_t>& items, Rng* rng) const;

  /// Scores of the batch, shape (|users|). When `capture_hop1_attention` is
  /// non-null, the head-averaged hop-1 attention weights are written there.
  /// The training forward, and the oracle of ScoreRows.
  autograd::Variable Forward(const BatchGraph& batch,
                             std::vector<float>* capture_hop1_attention);

  /// Buffers of one score lane, reused across the slices it scores.
  struct ScoreScratch;

  /// A pool of score_lanes() lanes and one ScoreScratch per lane.
  struct ScoreLanes;

  /// The scoring forward: Forward's scores of rows [begin, end) of `batch`,
  /// bit for bit, into `out`. Row r owns entry r of users/items and the
  /// block [r * w, (r + 1) * w) of every per-row array (w = the sample size
  /// for the neighbor lists, K^l for node-flow hop l), read in place. It
  /// records no tape and computes each repeated product once: a center's
  /// head transform once per center, and a KG parent's guided relation
  /// product once per distinct relation among its children.
  void ScoreRows(const BatchGraph& batch, int64_t begin, int64_t end,
                 ScoreScratch* scratch, float* out) const;

  /// Eqs. 2-5 on raw rows: `n` centers each attend over their `segment`
  /// consecutive `neighbors` rows; the head average goes to scratch->pooled.
  void InteractiveAttentionPoolRows(int64_t n, const float* centers,
                                    const float* neighbors, int64_t segment,
                                    ScoreScratch* scratch) const;

  /// Aggregate on raw rows: g(self, neighbors) of `n` rows into `out`.
  void AggregateRows(const nn::Dense& dense, int64_t n, const float* self,
                     const float* neighbors, ScoreScratch* scratch,
                     float* out) const;

  /// EncodeGuidance on raw rows: f(vu, vi) of `n` rows into `out`.
  void EncodeGuidanceRows(int64_t n, const float* vu, const float* vi,
                          float* out) const;

  /// Multi-head collaboration attention pooling (Eqs. 2-5): `centers`
  /// (n, d) each attend over their `segment` consecutive `neighbors` rows.
  autograd::Variable InteractiveAttentionPool(
      const autograd::Variable& centers, const autograd::Variable& neighbors,
      int64_t segment);

  /// Applies the configured aggregator g(self, neighbors) via `dense`.
  autograd::Variable Aggregate(const nn::Dense& dense,
                               const autograd::Variable& self,
                               const autograd::Variable& neighbors) const;

  /// Applies the configured guidance encoder f (Eqs. 10-12).
  autograd::Variable EncodeGuidance(const autograd::Variable& vu,
                                    const autograd::Variable& vi) const;

  CgKgrConfig config_;
  std::string name_;

  // Populated by Build().
  std::unique_ptr<graph::InteractionGraph> train_graph_;
  std::unique_ptr<graph::KnowledgeGraph> kg_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> entity_table_;
  /// Per-head M_{r*} transforms for the collaboration attention (Eq. 1).
  std::vector<autograd::Variable> interact_heads_;
  /// Per-head stacked relation matrices M_r, shape (R + 1, d, d) each
  /// (last slot is the sampler's self-loop padding relation).
  std::vector<autograd::Variable> kg_heads_;
  std::unique_ptr<nn::Dense> agg_user_;
  std::unique_ptr<nn::Dense> agg_item_;
  std::vector<std::unique_ptr<nn::Dense>> agg_kg_;  // one per hop, [0]=hop 1

  /// Held by ScoreChunk for a whole chunk.
  Mutex score_mu_;
  /// Created by the first ScoreChunk and kept for the model's life; rebuilt
  /// when score_lanes() changes (after Prepare or another Fit).
  std::unique_ptr<ScoreLanes> lanes_ CGKGR_GUARDED_BY(score_mu_);
};

}  // namespace core
}  // namespace cgkgr

#endif  // CGKGR_CORE_CGKGR_MODEL_H_
