#include "baselines/kgat.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/macros.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;

constexpr float kKgLossWeight = 0.5f;
}  // namespace

Kgat::Kgat(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2,
                       0x6B6761740000EEEEULL),
      hparams_(hparams) {}

Status Kgat::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("KGAT requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  const int64_t depth = std::max<int64_t>(1, hparams_.depth);
  num_entities_ = dataset.num_entities;
  num_users_ = dataset.num_users;

  // Unified graph: KG triplets plus interaction edges labeled r* (id = R).
  const int64_t interact_relation = dataset.num_relations;
  unified_triplets_ = dataset.kg;
  for (const auto& x : dataset.train) {
    unified_triplets_.push_back(
        {x.item, interact_relation, UserNode(x.user)});
  }
  unified_ = std::make_unique<graph::KnowledgeGraph>(
      num_entities_ + num_users_, dataset.num_relations + 1,
      unified_triplets_);

  Rng init_rng(seed ^ 0x6B67617400000001ULL);
  node_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "node_emb", num_entities_ + num_users_, d, &init_rng);
  relation_emb_ =
      store_.Create("relation_emb", {unified_->relation_id_space(), d},
                    nn::Init::kXavierUniform, &init_rng);
  relation_matrices_ =
      store_.Create("relation_mat", {unified_->relation_id_space(), d, d},
                    nn::Init::kXavierUniform, &init_rng);
  w1_.clear();
  w2_.clear();
  for (int64_t l = 1; l <= depth; ++l) {
    w1_.push_back(std::make_unique<nn::Dense>(
        &store_, "bi_add/hop" + std::to_string(l), d, d,
        nn::Activation::kLeakyRelu, &init_rng));
    w2_.push_back(std::make_unique<nn::Dense>(
        &store_, "bi_mul/hop" + std::to_string(l), d, d,
        nn::Activation::kLeakyRelu, &init_rng));
  }
  return Status::OK();
}

analysis::TapeLintOptions Kgat::OnEpochStart(int64_t epoch) {
  pretrain_ = epoch == 1;
  // The warm-up epoch intentionally bypasses Propagate, so the
  // bi-interaction layers are declared frozen for lint purposes.
  analysis::TapeLintOptions lint_options;
  if (pretrain_) lint_options.expected_frozen = {"bi_add/", "bi_mul/"};
  return lint_options;
}

Variable Kgat::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  const size_t b = batch.users.size();
  std::vector<int64_t> user_nodes;
  user_nodes.reserve(b);
  for (int64_t u : batch.users) user_nodes.push_back(UserNode(u));

  Variable vu;
  Variable vpos;
  Variable vneg;
  if (pretrain_) {
    vu = node_table_->Lookup(user_nodes);
    vpos = node_table_->Lookup(batch.positive_items);
    vneg = node_table_->Lookup(batch.negative_items);
  } else {
    vu = Propagate(user_nodes, rng);
    vpos = Propagate(batch.positive_items, rng);
    vneg = Propagate(batch.negative_items, rng);
  }
  Variable loss = autograd::BPRLoss(autograd::RowDot(vu, vpos),
                                    autograd::RowDot(vu, vneg));

  // TransR loss over unified triplets with corrupted tails.
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<int64_t> tails;
  std::vector<int64_t> corrupt;
  for (size_t i = 0; i < b; ++i) {
    const graph::Triplet& t =
        unified_triplets_[rng->UniformInt(unified_triplets_.size())];
    heads.push_back(t.head);
    rels.push_back(t.relation);
    tails.push_back(t.tail);
    corrupt.push_back(static_cast<int64_t>(rng->UniformInt(
        static_cast<uint64_t>(num_entities_ + num_users_))));
  }
  Variable kg_loss = autograd::BPRLoss(TransRDistance(heads, rels, corrupt),
                                       TransRDistance(heads, rels, tails));
  return autograd::Add(loss, autograd::Scale(kg_loss, kKgLossWeight));
}

Variable Kgat::Propagate(const std::vector<int64_t>& nodes, Rng* rng) {
  const int64_t batch = static_cast<int64_t>(nodes.size());
  const int64_t depth = static_cast<int64_t>(w1_.size());
  const int64_t segment = hparams_.kg_sample_size;
  const graph::NodeFlow flow = graph::NeighborSampler::SampleNodeFlow(
      *unified_, nodes, depth, segment, rng);

  std::vector<Variable> hop_emb(static_cast<size_t>(depth) + 1);
  for (int64_t l = 0; l <= depth; ++l) {
    hop_emb[static_cast<size_t>(l)] =
        node_table_->Lookup(flow.entities[static_cast<size_t>(l)]);
  }
  for (int64_t l = depth; l >= 1; --l) {
    const Variable& parents = hop_emb[static_cast<size_t>(l - 1)];
    const Variable& children = hop_emb[static_cast<size_t>(l)];
    const auto& rels = flow.relations[static_cast<size_t>(l)];
    // pi(h, r, t) = (W_r t)^T tanh(W_r h + e_r), LeakyReLU'd then softmaxed.
    Variable parent_rep = autograd::RowRepeat(parents, segment);
    Variable proj_h =
        autograd::RelationMatMul(parent_rep, rels, relation_matrices_);
    Variable proj_t =
        autograd::RelationMatMul(children, rels, relation_matrices_);
    Variable rel_e = autograd::Gather(relation_emb_, rels);
    Variable q = autograd::Tanh(autograd::Add(proj_h, rel_e));
    Variable logits =
        autograd::LeakyRelu(autograd::RowDot(proj_t, q), 0.2f);
    Variable weights = autograd::SegmentSoftmax(logits, segment);
    Variable pooled = autograd::SegmentWeightedSum(children, weights, segment);
    // Bi-interaction aggregator.
    Variable add_part = w1_[static_cast<size_t>(l - 1)]->Apply(
        autograd::Add(parents, pooled));
    Variable mul_part = w2_[static_cast<size_t>(l - 1)]->Apply(
        autograd::Mul(parents, pooled));
    hop_emb[static_cast<size_t>(l - 1)] = autograd::Add(add_part, mul_part);
  }
  CGKGR_CHECK(hop_emb[0].value().dim(0) == batch);
  return hop_emb[0];
}

Variable Kgat::TransRDistance(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& relations,
                              const std::vector<int64_t>& tails) {
  Variable h = node_table_->Lookup(heads);
  Variable t = node_table_->Lookup(tails);
  Variable h_proj =
      autograd::RelationMatMul(h, relations, relation_matrices_);
  Variable t_proj =
      autograd::RelationMatMul(t, relations, relation_matrices_);
  Variable r = autograd::Gather(relation_emb_, relations);
  Variable diff = autograd::Sub(autograd::Add(h_proj, r), t_proj);
  return autograd::RowDot(diff, diff);
}

void Kgat::ScoreChunk(std::span<const int64_t> users,
                      std::span<const int64_t> items, Rng* rng,
                      std::span<float> out) {
  std::vector<int64_t> user_nodes;
  user_nodes.reserve(users.size());
  for (int64_t u : users) user_nodes.push_back(UserNode(u));
  Variable vu = Propagate(user_nodes, rng);
  Variable vi = Propagate({items.begin(), items.end()}, rng);
  const Variable scores = autograd::RowDot(vu, vi);
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
