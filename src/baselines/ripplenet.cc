#include "baselines/ripplenet.h"

#include <algorithm>

#include "autograd/ops.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

RippleNet::RippleNet(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2),
      hparams_(hparams) {}

Status RippleNet::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("RippleNet requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  const graph::KnowledgeGraph kg = dataset.BuildKnowledgeGraph();
  const graph::InteractionGraph train_graph = dataset.BuildTrainGraph();

  // --- precompute ripple sets from the *train* interactions ---
  Rng ripple_rng(seed ^ 0x9199137319931375ULL);
  ripple_sets_.assign(static_cast<size_t>(dataset.num_users), {});
  for (int64_t u = 0; u < dataset.num_users; ++u) {
    auto& hops = ripple_sets_[static_cast<size_t>(u)];
    hops.resize(static_cast<size_t>(num_hops_));
    std::vector<int64_t> frontier(train_graph.ItemsOf(u).begin(),
                                  train_graph.ItemsOf(u).end());
    if (frontier.empty()) frontier.push_back(0);  // cold user: dummy seed
    for (int64_t h = 0; h < num_hops_; ++h) {
      RippleSet& set = hops[static_cast<size_t>(h)];
      set.heads.reserve(static_cast<size_t>(memory_size_));
      for (int64_t m = 0; m < memory_size_; ++m) {
        const int64_t head = frontier[ripple_rng.UniformInt(frontier.size())];
        auto neighbors = kg.NeighborsOf(head);
        if (neighbors.empty()) {
          set.heads.push_back(head);
          set.relations.push_back(kg.self_loop_relation());
          set.tails.push_back(head);
          continue;
        }
        const graph::KgNeighbor& n =
            neighbors[ripple_rng.UniformInt(neighbors.size())];
        set.heads.push_back(head);
        set.relations.push_back(n.relation);
        set.tails.push_back(n.entity);
      }
      frontier = set.tails;
    }
  }

  // --- parameters ---
  Rng init_rng(seed ^ 0x2121212121212121ULL);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_matrices_ =
      store_.Create("relation_mat", {kg.relation_id_space(), d, d},
                    nn::Init::kXavierUniform, &init_rng);
  return Status::OK();
}

Variable RippleNet::BatchLoss(const models::TrainBatch& batch, Rng* /*rng*/) {
  LabelledPairs pairs = LabelPairs(batch);
  return autograd::BCEWithLogits(Forward(pairs.users, pairs.items),
                                 std::move(pairs.labels));
}

Variable RippleNet::Forward(const std::vector<int64_t>& users,
                            const std::vector<int64_t>& items) {
  const int64_t batch = static_cast<int64_t>(users.size());
  Variable item_emb = entity_table_->Lookup(items);  // (B, d)

  Variable user_repr;  // sum over hops of o_h, (B, d)
  for (int64_t h = 0; h < num_hops_; ++h) {
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    std::vector<int64_t> tails;
    heads.reserve(static_cast<size_t>(batch * memory_size_));
    for (int64_t b = 0; b < batch; ++b) {
      const RippleSet& set = ripple_sets_[static_cast<size_t>(
          users[static_cast<size_t>(b)])][static_cast<size_t>(h)];
      heads.insert(heads.end(), set.heads.begin(), set.heads.end());
      rels.insert(rels.end(), set.relations.begin(), set.relations.end());
      tails.insert(tails.end(), set.tails.begin(), set.tails.end());
    }
    Variable head_emb = entity_table_->Lookup(heads);  // (B*m, d)
    Variable tail_emb = entity_table_->Lookup(tails);
    Variable projected =
        autograd::RelationMatMul(head_emb, rels, relation_matrices_);
    Variable item_rep = autograd::RowRepeat(item_emb, memory_size_);
    Variable logits = autograd::RowDot(projected, item_rep);
    Variable probs = autograd::SegmentSoftmax(logits, memory_size_);
    Variable o = autograd::SegmentWeightedSum(tail_emb, probs, memory_size_);
    user_repr = user_repr.defined() ? autograd::Add(user_repr, o) : o;
  }
  return autograd::RowDot(user_repr, item_emb);
}

void RippleNet::ScoreChunk(std::span<const int64_t> users,
                           std::span<const int64_t> items, Rng* /*rng*/,
                           std::span<float> out) {
  const Variable scores = Forward({users.begin(), users.end()},
                                  {items.begin(), items.end()});
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
