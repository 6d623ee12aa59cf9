#include "baselines/nfm.h"

#include <algorithm>

#include "autograd/ops.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

Nfm::Nfm(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2),
      hparams_(hparams) {}

Status Nfm::Build(const data::Dataset& dataset, uint64_t seed) {
  const int64_t d = hparams_.embedding_dim;
  Rng init_rng(seed ^ 0x4F4D4E464D000000ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_emb", dataset.num_items, d, &init_rng);
  user_bias_ = store_.Create("user_bias", {dataset.num_users, 1},
                             nn::Init::kZeros, &init_rng);
  item_bias_ = store_.Create("item_bias", {dataset.num_items, 1},
                             nn::Init::kZeros, &init_rng);
  global_bias_ = store_.Create("global_bias", {1}, nn::Init::kZeros,
                               &init_rng);
  hidden_ = std::make_unique<nn::Dense>(&store_, "hidden", d, d,
                                        nn::Activation::kRelu, &init_rng);
  output_ = std::make_unique<nn::Dense>(&store_, "output", d, 1,
                                        nn::Activation::kIdentity, &init_rng);
  return Status::OK();
}

Variable Nfm::BatchLoss(const models::TrainBatch& batch, Rng* /*rng*/) {
  LabelledPairs pairs = LabelPairs(batch);
  return autograd::BCEWithLogits(Forward(pairs.users, pairs.items),
                                 std::move(pairs.labels));
}

Variable Nfm::Forward(const std::vector<int64_t>& users,
                      const std::vector<int64_t>& items) {
  const int64_t n = static_cast<int64_t>(users.size());
  Variable eu = user_table_->Lookup(users);
  Variable ei = item_table_->Lookup(items);
  // Bi-interaction pooling of {e_u, e_i} = e_u . e_i (Hadamard).
  Variable interaction = autograd::Mul(eu, ei);
  Variable deep = output_->Apply(hidden_->Apply(interaction));  // (n, 1)
  Variable bu = autograd::Gather(user_bias_, users);            // (n, 1)
  Variable bi = autograd::Gather(item_bias_, items);            // (n, 1)
  Variable sum = autograd::Add(autograd::Add(deep, bu), bi);
  Variable flat = autograd::Reshape(sum, {n});
  // Broadcast the scalar global bias by repeating its row.
  Variable w0 = autograd::Reshape(
      autograd::RowRepeat(autograd::Reshape(global_bias_, {1, 1}), n), {n});
  return autograd::Add(flat, w0);
}

void Nfm::ScoreChunk(std::span<const int64_t> users,
                     std::span<const int64_t> items, Rng* /*rng*/,
                     std::span<float> out) {
  const Variable scores = Forward({users.begin(), users.end()},
                                  {items.begin(), items.end()});
  std::copy_n(scores.value().data(), out.size(), out.begin());
}

}  // namespace baselines
}  // namespace cgkgr
