#include "models/recommender.h"

#include <algorithm>
#include <utility>

#include "autograd/ops.h"
#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/macros.h"
#include "models/parallel_trainer.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace models {

RecommenderModel::RecommenderModel(float learning_rate, float l2,
                                   uint64_t eval_salt)
    : eval_salt_(eval_salt) {
  adam_.learning_rate = learning_rate;
  adam_.l2 = l2;
}

// Out-of-line key function: anchors the vtable in this translation unit.
RecommenderModel::~RecommenderModel() = default;

Status RecommenderModel::Prepare(const data::Dataset& dataset,
                                 uint64_t seed) {
  store_ = nn::ParameterStore();
  prepared_ = false;
  CGKGR_RETURN_NOT_OK(Build(dataset, seed));
  prepared_ = true;
  num_users_ = dataset.num_users;
  num_items_ = dataset.num_items;
  eval_seed_ = seed ^ eval_salt_;
  score_lanes_ = 1;
  return Status::OK();
}

Status RecommenderModel::Fit(const data::Dataset& dataset,
                             const TrainOptions& options) {
  CGKGR_RETURN_NOT_OK(Prepare(dataset, options.seed));
  // The training lanes also score: the per-epoch eval below, and every
  // ScorePairs call after Fit.
  score_lanes_ = options.num_threads;
  nn::AdamOptimizer optimizer(store_.parameters(), adam_);
  const auto all_positives = dataset.BuildAllPositives();
  ParallelTrainer trainer(options, &store_, &optimizer);
  const ParallelTrainer::LossFn loss_fn = [this](const TrainBatch& batch,
                                                 Rng* rng) {
    return BatchLoss(batch, rng);
  };
  auto run_epoch = [&](int64_t epoch, Rng* rng) {
    return trainer.RunEpoch(dataset.train, all_positives, dataset.num_items,
                            rng, loss_fn, OnEpochStart(epoch));
  };
  return RunTrainingLoop(this, &store_, &optimizer, dataset, options,
                         run_epoch, &stats_);
}

void RecommenderModel::ScorePairs(const std::vector<int64_t>& users,
                                  const std::vector<int64_t>& items,
                                  std::vector<float>* out) {
  CGKGR_CHECK_MSG(prepared_, "ScorePairs before Fit/Prepare");
  CGKGR_CHECK(users.size() == items.size() && out != nullptr);
  // The one bounds check on the ids: samplers and dot-product scorers
  // index with them unchecked.
  for (size_t p = 0; p < users.size(); ++p) {
    CGKGR_CHECK_MSG(users[p] >= 0 && users[p] < num_users_,
                    "ScorePairs user id %lld out of range [0, %lld)",
                    static_cast<long long>(users[p]),
                    static_cast<long long>(num_users_));
    CGKGR_CHECK_MSG(items[p] >= 0 && items[p] < num_items_,
                    "ScorePairs item id %lld out of range [0, %lld)",
                    static_cast<long long>(items[p]),
                    static_cast<long long>(num_items_));
  }
  autograd::NoGradGuard no_grad;
  Rng rng(eval_seed_);
  out->resize(users.size());
  const std::span<const int64_t> all_users(users);
  const std::span<const int64_t> all_items(items);
  const std::span<float> all_out(*out);
  for (size_t begin = 0; begin < users.size(); begin += kScoreChunkPairs) {
    const size_t count = std::min<size_t>(kScoreChunkPairs,
                                          users.size() - begin);
    ScoreChunk(all_users.subspan(begin, count),
               all_items.subspan(begin, count), &rng,
               all_out.subspan(begin, count));
  }
}

void RecommenderModel::SaveState(ckpt::Writer* writer) const {
  CGKGR_CHECK_MSG(prepared_, "SaveState before Fit/Prepare");
  writer->BeginSection("model/" + name());
  ckpt::WriteParameterStore(store_, writer);
}

Status RecommenderModel::LoadState(ckpt::Reader* reader) {
  if (!prepared_) {
    return Status::InvalidArgument("LoadState before Fit/Prepare: " + name());
  }
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("model/" + name()));
  return ckpt::ReadParameterStore(reader, &store_);
}

analysis::TapeLintOptions RecommenderModel::OnEpochStart(
    int64_t /*epoch*/) {
  return {};
}

RecommenderModel::LabelledPairs RecommenderModel::LabelPairs(
    const TrainBatch& batch) {
  LabelledPairs pairs;
  pairs.users = batch.users;
  pairs.users.insert(pairs.users.end(), batch.users.begin(),
                     batch.users.end());
  pairs.items = batch.positive_items;
  pairs.items.insert(pairs.items.end(), batch.negative_items.begin(),
                     batch.negative_items.end());
  pairs.labels.assign(pairs.users.size(), 0.0f);
  std::fill_n(pairs.labels.begin(), batch.users.size(), 1.0f);
  return pairs;
}

Status SaveModelState(const RecommenderModel& model, const std::string& path) {
  ckpt::Writer writer;
  model.SaveState(&writer);
  return writer.Commit(path);
}

Status LoadModelState(RecommenderModel* model, const std::string& path) {
  CGKGR_CHECK(model != nullptr);
  Result<ckpt::Reader> reader = ckpt::Reader::Open(path);
  if (!reader.ok()) return reader.status();
  ckpt::Reader r = std::move(reader).value();
  CGKGR_RETURN_NOT_OK(model->LoadState(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        path + ": trailing records after model state — file was not written "
               "by SaveModelState for this model");
  }
  return Status::OK();
}

}  // namespace models
}  // namespace cgkgr
