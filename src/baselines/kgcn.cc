#include "baselines/kgcn.h"

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

Kgcn::Kgcn(const data::PresetHyperParams& hparams, std::string name)
    : hparams_(hparams), name_(std::move(name)) {}

Status Kgcn::Fit(const data::Dataset& dataset,
                 const models::TrainOptions& options) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument(name_ + " requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  const int64_t depth = std::max<int64_t>(1, hparams_.depth);
  train_graph_ = std::make_unique<graph::InteractionGraph>(
      dataset.BuildTrainGraph());
  kg_ = std::make_unique<graph::KnowledgeGraph>(dataset.BuildKnowledgeGraph());

  store_ = nn::ParameterStore();
  Rng init_rng(options.seed ^ 0x6B67636E00000001ULL);
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

  nn::AdamOptions adam;
  adam.learning_rate = hparams_.learning_rate;
  adam.l2 = hparams_.l2;
  nn::AdamOptimizer optimizer(store_.parameters(), adam);

  const auto all_positives = dataset.BuildAllPositives();
  fitted_ = true;
  eval_seed_ = options.seed ^ 0x6B67636E0000EEEEULL;

  models::ParallelTrainer trainer(options, &store_, &optimizer);
  // ComputeBatchLoss is virtual: KGNN-LS rides this same loop with its
  // label-smoothness term added.
  auto loss_fn = [&](const models::TrainBatch& batch, Rng* rng) {
    return ComputeBatchLoss(batch, rng);
  };
  auto run_epoch = [&](int64_t /*epoch*/, Rng* rng) {
    return trainer.RunEpoch(dataset.train, all_positives, dataset.num_items,
                            rng, loss_fn);
  };

  return models::RunTrainingLoop(this, &store_, &optimizer, dataset, options,
                                 run_epoch, &stats_);
}

Variable Kgcn::ComputeBatchLoss(const models::TrainBatch& batch, Rng* rng) {
  std::vector<int64_t> users = batch.users;
  users.insert(users.end(), batch.users.begin(), batch.users.end());
  std::vector<int64_t> items = batch.positive_items;
  items.insert(items.end(), batch.negative_items.begin(),
               batch.negative_items.end());
  Variable scores = Forward(users, items, rng, nullptr);
  std::vector<float> labels(users.size(), 0.0f);
  std::fill(labels.begin(),
            labels.begin() + static_cast<int64_t>(batch.users.size()), 1.0f);
  return autograd::BCEWithLogits(scores, std::move(labels));
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

void Kgcn::ScorePairs(const std::vector<int64_t>& users,
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
    Variable scores = Forward(chunk_users, chunk_items, &rng, nullptr);
    for (size_t i = begin; i < end; ++i) {
      (*out)[i] = scores.value()[static_cast<int64_t>(i - begin)];
    }
  }
}

// Persistence: every parameter in creation order under one named section
// (validated on load). ScorePairs reseeds its sampling stream per call from
// eval_seed_, so there is no stateful inference RNG to serialize.
void Kgcn::SaveState(ckpt::Writer* writer) const {
  CGKGR_CHECK_MSG(fitted_, "SaveState before Fit");
  writer->BeginSection("model/" + name());
  ckpt::WriteParameterStore(store_, writer);
}

Status Kgcn::LoadState(ckpt::Reader* reader) {
  if (!fitted_) {
    return Status::InvalidArgument("LoadState before Fit/Prepare: " + name());
  }
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("model/" + name()));
  return ckpt::ReadParameterStore(reader, &store_);
}

}  // namespace baselines
}  // namespace cgkgr
