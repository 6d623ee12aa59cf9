#include "baselines/bprmf.h"

#include "autograd/ops.h"
#include "models/trainer_util.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace baselines {

BprMf::BprMf(const data::PresetHyperParams& hparams)
    : RecommenderModel(hparams.learning_rate, hparams.l2),
      hparams_(hparams) {}

Status BprMf::Build(const data::Dataset& dataset, uint64_t seed) {
  const int64_t d = hparams_.embedding_dim;
  Rng init_rng(seed ^ 0xB0B0B0B0B0B0B0B0ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_emb", dataset.num_items, d, &init_rng);
  return Status::OK();
}

autograd::Variable BprMf::BatchLoss(const models::TrainBatch& batch,
                                    Rng* /*rng*/) {
  autograd::Variable vu = user_table_->Lookup(batch.users);
  autograd::Variable vpos = item_table_->Lookup(batch.positive_items);
  autograd::Variable vneg = item_table_->Lookup(batch.negative_items);
  return autograd::BPRLoss(autograd::RowDot(vu, vpos),
                           autograd::RowDot(vu, vneg));
}

void BprMf::ScoreChunk(std::span<const int64_t> users,
                       std::span<const int64_t> items, Rng* /*rng*/,
                       std::span<float> out) {
  // Pure dot products: read the tables directly, no tape needed.
  const tensor::Tensor& u = user_table_->table().value();
  const tensor::Tensor& i = item_table_->table().value();
  const int64_t d = hparams_.embedding_dim;
  for (size_t p = 0; p < users.size(); ++p) {
    out[p] = tensor::Dot(d, u.data() + users[p] * d, i.data() + items[p] * d);
  }
}

}  // namespace baselines
}  // namespace cgkgr
