#include "baselines/kgcn.h"

#include <algorithm>

#include "autograd/ops.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

Kgcn::Kgcn(const data::PresetHyperParams& hparams, std::string name)
    : RecommenderModel(hparams.learning_rate, hparams.l2,
                       0x6B67636E0000EEEEULL),
      hparams_(hparams),
      name_(std::move(name)) {}

Status Kgcn::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument(name_ + " requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  const int64_t depth = std::max<int64_t>(1, hparams_.depth);
  train_graph_ = std::make_unique<graph::InteractionGraph>(
      dataset.BuildTrainGraph());
  kg_ = std::make_unique<graph::KnowledgeGraph>(dataset.BuildKnowledgeGraph());

  Rng init_rng(seed ^ 0x6B67636E00000001ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_emb_ = store_.Create("relation_emb", {kg_->relation_id_space(), d},
                                nn::Init::kXavierUniform, &init_rng);
  layers_.clear();
  for (int64_t l = 1; l <= depth; ++l) {
    const nn::Activation act =
        l == 1 ? nn::Activation::kTanh : nn::Activation::kRelu;
    layers_.push_back(std::make_unique<nn::Dense>(
        &store_, "layer/hop" + std::to_string(l), d, d, act, &init_rng));
  }
  return Status::OK();
}

Variable Kgcn::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  LabelledPairs pairs = LabelPairs(batch);
  Variable scores = Forward(pairs.users, pairs.items, rng, nullptr);
  return autograd::BCEWithLogits(scores, std::move(pairs.labels));
}

Variable Kgcn::Forward(const std::vector<int64_t>& users,
                       const std::vector<int64_t>& items, Rng* rng,
                       Variable* ls_prediction) {
  const int64_t batch = static_cast<int64_t>(users.size());
  const int64_t depth = static_cast<int64_t>(layers_.size());
  const int64_t segment = hparams_.kg_sample_size;

  const graph::NodeFlow flow = graph::NeighborSampler::SampleNodeFlow(
      *kg_, items, depth, segment, rng);

  Variable user_emb = user_table_->Lookup(users);  // (B, d)

  std::vector<Variable> hop_emb(static_cast<size_t>(depth) + 1);
  hop_emb[0] = entity_table_->Lookup(items);
  for (int64_t l = 1; l <= depth; ++l) {
    hop_emb[static_cast<size_t>(l)] =
        entity_table_->Lookup(flow.entities[static_cast<size_t>(l)]);
  }

  // Label propagation bookkeeping for KGNN-LS: ground-truth labels of the
  // sampled nodes (1 when the node is an item this user interacted with in
  // training, else 0) propagate leaf-to-root through the same attention
  // weights; observed item labels are clamped at every hop, and the seed
  // item itself is held out so its propagated value becomes the prediction.
  std::vector<Variable> hop_label(static_cast<size_t>(depth) + 1);
  auto node_labels = [&](int64_t hop) {
    const auto& entities = flow.entities[static_cast<size_t>(hop)];
    std::vector<float> labels(entities.size());
    for (size_t j = 0; j < entities.size(); ++j) {
      const int64_t user = users[j / (entities.size() / users.size())];
      labels[j] = entities[j] < train_graph_->num_items() &&
                          train_graph_->HasInteraction(user, entities[j])
                      ? 1.0f
                      : 0.0f;
    }
    return labels;
  };
  auto item_mask = [&](int64_t hop) {
    const auto& entities = flow.entities[static_cast<size_t>(hop)];
    std::vector<float> mask(entities.size());
    for (size_t j = 0; j < entities.size(); ++j) {
      mask[j] = entities[j] < train_graph_->num_items() ? 1.0f : 0.0f;
    }
    return mask;
  };
  if (ls_prediction != nullptr) {
    std::vector<float> leaf = node_labels(depth);
    const int64_t leaf_count = static_cast<int64_t>(leaf.size());
    hop_label[static_cast<size_t>(depth)] = autograd::Constant(
        tensor::Tensor({leaf_count, 1}, std::move(leaf)));
  }

  for (int64_t l = depth; l >= 1; --l) {
    const Variable& parents = hop_emb[static_cast<size_t>(l - 1)];
    const Variable& children = hop_emb[static_cast<size_t>(l)];
    const int64_t num_children = children.value().dim(0);
    // pi(u, r): user-relation affinity, one score per sampled edge.
    Variable user_rep =
        autograd::RowRepeat(user_emb, num_children / batch);
    Variable rel_emb = autograd::Gather(
        relation_emb_, flow.relations[static_cast<size_t>(l)]);
    Variable logits = autograd::RowDot(user_rep, rel_emb);
    Variable weights = autograd::SegmentSoftmax(logits, segment);
    Variable pooled =
        autograd::SegmentWeightedSum(children, weights, segment);
    hop_emb[static_cast<size_t>(l - 1)] =
        layers_[static_cast<size_t>(l - 1)]->Apply(
            autograd::Add(parents, pooled));

    if (ls_prediction != nullptr) {
      // Propagate labels with the same attention weights.
      Variable propagated = autograd::SegmentWeightedSum(
          hop_label[static_cast<size_t>(l)], weights, segment);  // (K, 1)
      if (l == 1) {
        // Seed labels are held out: the propagated value is the prediction.
        hop_label[0] = propagated;
      } else {
        // Clamp observed item labels; entities keep the propagated value.
        std::vector<float> mask = item_mask(l - 1);
        std::vector<float> truth = node_labels(l - 1);
        const int64_t k = static_cast<int64_t>(mask.size());
        std::vector<float> inverse(mask.size());
        std::vector<float> clamped(mask.size());
        for (size_t j = 0; j < mask.size(); ++j) {
          inverse[j] = 1.0f - mask[j];
          clamped[j] = mask[j] * truth[j];
        }
        Variable keep = autograd::Mul(
            autograd::Constant(tensor::Tensor({k, 1}, std::move(inverse))),
            propagated);
        hop_label[static_cast<size_t>(l - 1)] = autograd::Add(
            keep,
            autograd::Constant(tensor::Tensor({k, 1}, std::move(clamped))));
      }
    }
  }

  if (ls_prediction != nullptr) {
    *ls_prediction = autograd::Reshape(hop_label[0], {batch});
  }
  return autograd::RowDot(user_emb, hop_emb[0]);
}

void Kgcn::ScoreChunk(std::span<const int64_t> users,
                      std::span<const int64_t> items, Rng* rng,
                      std::span<float> out) {
  const Variable scores = Forward({users.begin(), users.end()},
                                  {items.begin(), items.end()}, rng, nullptr);
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
