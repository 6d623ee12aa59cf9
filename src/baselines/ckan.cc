#include "baselines/ckan.h"

#include "ckpt/checkpoint.h"
#include "autograd/ops.h"
#include "common/macros.h"
#include "models/parallel_trainer.h"
#include "models/trainer_util.h"
#include "nn/adam.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

Ckan::Ckan(const data::PresetHyperParams& hparams) : hparams_(hparams) {}

Status Ckan::Fit(const data::Dataset& dataset,
                 const models::TrainOptions& options) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("CKAN requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  depth_ = std::max<int64_t>(1, hparams_.depth);
  train_graph_ = std::make_unique<graph::InteractionGraph>(
      dataset.BuildTrainGraph());
  kg_ = std::make_unique<graph::KnowledgeGraph>(dataset.BuildKnowledgeGraph());

  store_ = nn::ParameterStore();
  Rng init_rng(options.seed ^ 0x636B616E00000001ULL);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_emb_ = store_.Create("relation_emb", {kg_->relation_id_space(), d},
                                nn::Init::kXavierUniform, &init_rng);
  att_hidden_ = std::make_unique<nn::Dense>(
      &store_, "att_hidden", 3 * d, d, nn::Activation::kLeakyRelu, &init_rng);
  att_out_ = std::make_unique<nn::Dense>(&store_, "att_out", d, 1,
                                         nn::Activation::kIdentity, &init_rng);

  nn::AdamOptions adam;
  adam.learning_rate = hparams_.learning_rate;
  adam.l2 = hparams_.l2;
  nn::AdamOptimizer optimizer(store_.parameters(), adam);

  const auto all_positives = dataset.BuildAllPositives();
  fitted_ = true;
  eval_seed_ = options.seed ^ 0x636B616E0000EEEEULL;

  models::ParallelTrainer trainer(options, &store_, &optimizer);
  auto loss_fn = [&](const models::TrainBatch& batch, Rng* rng) {
    std::vector<int64_t> users = batch.users;
    users.insert(users.end(), batch.users.begin(), batch.users.end());
    std::vector<int64_t> items = batch.positive_items;
    items.insert(items.end(), batch.negative_items.begin(),
                 batch.negative_items.end());
    Variable scores = Forward(users, items, rng);
    std::vector<float> labels(users.size(), 0.0f);
    std::fill(labels.begin(),
              labels.begin() + static_cast<int64_t>(batch.users.size()),
              1.0f);
    return autograd::BCEWithLogits(scores, std::move(labels));
  };
  auto run_epoch = [&](int64_t /*epoch*/, Rng* rng) {
    return trainer.RunEpoch(dataset.train, all_positives, dataset.num_items,
                            rng, loss_fn);
  };

  return models::RunTrainingLoop(this, &store_, &optimizer, dataset, options,
                                 run_epoch, &stats_);
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

void Ckan::ScorePairs(const std::vector<int64_t>& users,
                      const std::vector<int64_t>& items,
                      std::vector<float>* out) {
  CGKGR_CHECK_MSG(fitted_, "ScorePairs before Fit");
  CGKGR_CHECK(users.size() == items.size() && out != nullptr);
  autograd::NoGradGuard no_grad;
  Rng rng(eval_seed_);
  out->resize(users.size());
  constexpr size_t kChunk = 1024;
  std::vector<int64_t> chunk_users;
  std::vector<int64_t> chunk_items;
  for (size_t begin = 0; begin < users.size(); begin += kChunk) {
    const size_t end = std::min(users.size(), begin + kChunk);
    chunk_users.assign(users.begin() + begin, users.begin() + end);
    chunk_items.assign(items.begin() + begin, items.begin() + end);
    Variable scores = Forward(chunk_users, chunk_items, &rng);
    for (size_t i = begin; i < end; ++i) {
      (*out)[i] = scores.value()[static_cast<int64_t>(i - begin)];
    }
  }
}

// Persistence: every parameter in creation order under one named section
// (validated on load). ScorePairs reseeds its sampling stream per call from
// eval_seed_, so there is no stateful inference RNG to serialize.
void Ckan::SaveState(ckpt::Writer* writer) const {
  CGKGR_CHECK_MSG(fitted_, "SaveState before Fit");
  writer->BeginSection("model/" + name());
  ckpt::WriteParameterStore(store_, writer);
}

Status Ckan::LoadState(ckpt::Reader* reader) {
  if (!fitted_) {
    return Status::InvalidArgument("LoadState before Fit/Prepare: " + name());
  }
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("model/" + name()));
  return ckpt::ReadParameterStore(reader, &store_);
}

}  // namespace baselines
}  // namespace cgkgr
