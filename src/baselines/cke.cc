#include "baselines/cke.h"

#include <algorithm>

#include "autograd/ops.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;

/// Weight of the TransR loss relative to the recommendation loss.
constexpr float kKgLossWeight = 0.5f;
}  // namespace

Cke::Cke(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2),
      hparams_(hparams) {}

Status Cke::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("CKE requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  num_entities_ = dataset.num_entities;
  kg_triplets_ = dataset.kg;
  Rng init_rng(seed ^ 0xCCE0000000000001ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_offset_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_offset", dataset.num_items, d, &init_rng);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_vectors_ = store_.Create("relation_vec", {dataset.num_relations, d},
                                    nn::Init::kXavierUniform, &init_rng);
  relation_matrices_ = store_.Create("relation_mat",
                                     {dataset.num_relations, d, d},
                                     nn::Init::kXavierUniform, &init_rng);
  return Status::OK();
}

Variable Cke::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  const size_t b = batch.users.size();
  // Recommendation part: BCE over positives and negatives.
  LabelledPairs pairs = LabelPairs(batch);
  Variable scores = autograd::RowDot(user_table_->Lookup(pairs.users),
                                     ItemRepr(pairs.items));
  Variable loss = autograd::BCEWithLogits(scores, std::move(pairs.labels));

  // TransR part on a same-size sample of triplets with corrupted
  // tails as negatives.
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<int64_t> tails;
  std::vector<int64_t> corrupt_tails;
  for (size_t i = 0; i < b; ++i) {
    const graph::Triplet& t =
        kg_triplets_[rng->UniformInt(kg_triplets_.size())];
    heads.push_back(t.head);
    rels.push_back(t.relation);
    tails.push_back(t.tail);
    corrupt_tails.push_back(static_cast<int64_t>(
        rng->UniformInt(static_cast<uint64_t>(num_entities_))));
  }
  Variable pos_distance = TransRDistance(heads, rels, tails);
  Variable neg_distance = TransRDistance(heads, rels, corrupt_tails);
  // Margin-free soft ranking loss: softplus(d_pos - d_neg).
  Variable kg_loss = autograd::BPRLoss(neg_distance, pos_distance);
  return autograd::Add(loss, autograd::Scale(kg_loss, kKgLossWeight));
}

Variable Cke::ItemRepr(const std::vector<int64_t>& items) {
  // v_i = eta_i + e_i (structural embedding), Zhang et al. Eq. (6).
  return autograd::Add(item_offset_table_->Lookup(items),
                       entity_table_->Lookup(items));
}

Variable Cke::TransRDistance(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& relations,
                             const std::vector<int64_t>& tails) {
  Variable h = entity_table_->Lookup(heads);
  Variable t = entity_table_->Lookup(tails);
  Variable h_proj = autograd::RelationMatMul(h, relations, relation_matrices_);
  Variable t_proj = autograd::RelationMatMul(t, relations, relation_matrices_);
  Variable r = autograd::Gather(relation_vectors_, relations);
  Variable diff = autograd::Sub(autograd::Add(h_proj, r), t_proj);
  return autograd::RowDot(diff, diff);
}

void Cke::ScoreChunk(std::span<const int64_t> users,
                     std::span<const int64_t> items, Rng* /*rng*/,
                     std::span<float> out) {
  const Variable scores =
      autograd::RowDot(user_table_->Lookup({users.begin(), users.end()}),
                       ItemRepr({items.begin(), items.end()}));
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
