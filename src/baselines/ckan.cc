#include "baselines/ckan.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/macros.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

Ckan::Ckan(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2,
                       0x636B616E0000EEEEULL),
      hparams_(hparams) {}

Status Ckan::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("CKAN requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  depth_ = std::max<int64_t>(1, hparams_.depth);
  train_graph_ = std::make_unique<graph::InteractionGraph>(
      dataset.BuildTrainGraph());
  kg_ = std::make_unique<graph::KnowledgeGraph>(dataset.BuildKnowledgeGraph());

  Rng init_rng(seed ^ 0x636B616E00000001ULL);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_emb_ = store_.Create("relation_emb", {kg_->relation_id_space(), d},
                                nn::Init::kXavierUniform, &init_rng);
  att_hidden_ = std::make_unique<nn::Dense>(
      &store_, "att_hidden", 3 * d, d, nn::Activation::kLeakyRelu, &init_rng);
  att_out_ = std::make_unique<nn::Dense>(&store_, "att_out", d, 1,
                                         nn::Activation::kIdentity, &init_rng);
  return Status::OK();
}

Variable Ckan::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  LabelledPairs pairs = LabelPairs(batch);
  return autograd::BCEWithLogits(Forward(pairs.users, pairs.items, rng),
                                 std::move(pairs.labels));
}

Variable Ckan::PropagateHops(const graph::NodeFlow& flow,
                             autograd::Variable base, int64_t per_root,
                             int64_t batch) {
  int64_t segment = per_root;  // grows by kg_sample_size per hop
  Variable repr = std::move(base);
  for (int64_t l = 1; l <= flow.depth(); ++l) {
    segment *= hparams_.kg_sample_size;
    const auto& heads = flow.entities[static_cast<size_t>(l - 1)];
    const auto& tails = flow.entities[static_cast<size_t>(l)];
    const auto& rels = flow.relations[static_cast<size_t>(l)];
    Variable head_emb = entity_table_->Lookup(heads);
    Variable tail_emb = entity_table_->Lookup(tails);
    Variable head_rep =
        autograd::RowRepeat(head_emb, hparams_.kg_sample_size);
    Variable rel_e = autograd::Gather(relation_emb_, rels);
    Variable att_in = autograd::ConcatCols(
        autograd::ConcatCols(head_rep, rel_e), tail_emb);
    Variable logits = autograd::Reshape(
        att_out_->Apply(att_hidden_->Apply(att_in)),
        {static_cast<int64_t>(tails.size())});
    // Attention normalized over the user's/item's entire hop-l triplet set.
    Variable weights = autograd::SegmentSoftmax(logits, segment);
    Variable pooled = autograd::SegmentWeightedSum(tail_emb, weights, segment);
    CGKGR_CHECK(pooled.value().dim(0) == batch);
    repr = autograd::Add(repr, pooled);
  }
  return repr;
}

Variable Ckan::Forward(const std::vector<int64_t>& users,
                       const std::vector<int64_t>& items, Rng* rng) {
  const int64_t batch = static_cast<int64_t>(users.size());
  const int64_t seeds_per_user = hparams_.user_sample_size;

  // --- user side: collaborative seeds, then knowledge propagation ---
  std::vector<int64_t> seeds = graph::NeighborSampler::SampleUserNeighbors(
      *train_graph_, users, seeds_per_user, /*fallback_item=*/0, rng);
  Variable seed_emb = entity_table_->Lookup(seeds);
  Variable uniform = autograd::Constant(tensor::Tensor::Full(
      {static_cast<int64_t>(seeds.size())},
      1.0f / static_cast<float>(seeds_per_user)));
  Variable user_base =
      autograd::SegmentWeightedSum(seed_emb, uniform, seeds_per_user);
  graph::NodeFlow user_flow = graph::NeighborSampler::SampleNodeFlow(
      *kg_, seeds, depth_, hparams_.kg_sample_size, rng);
  Variable user_repr =
      PropagateHops(user_flow, user_base, seeds_per_user, batch);

  // --- item side: expansion of the item itself ---
  Variable item_base = entity_table_->Lookup(items);
  graph::NodeFlow item_flow = graph::NeighborSampler::SampleNodeFlow(
      *kg_, items, depth_, hparams_.kg_sample_size, rng);
  Variable item_repr = PropagateHops(item_flow, item_base, 1, batch);

  return autograd::RowDot(user_repr, item_repr);
}

void Ckan::ScoreChunk(std::span<const int64_t> users,
                      std::span<const int64_t> items, Rng* rng,
                      std::span<float> out) {
  const Variable scores = Forward({users.begin(), users.end()},
                                  {items.begin(), items.end()}, rng);
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
