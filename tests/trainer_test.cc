// Tests for the training plumbing every model builds on: the shared
// training loop (models/trainer_util) and the ParallelTrainer epoch driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "data/synthetic.h"
#include "models/parallel_trainer.h"
#include "models/registry.h"
#include "models/trainer_util.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/parameter.h"
#include "serve/delta.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace models {
namespace {

std::vector<graph::Interaction> MakeTrain(int64_t users, int64_t per_user) {
  std::vector<graph::Interaction> train;
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t j = 0; j < per_user; ++j) train.push_back({u, (u + j) % 50});
  }
  return train;
}

data::Dataset SmallDataset() {
  data::SyntheticConfig config;
  config.name = "trainer-test";
  config.seed = 404;
  config.num_users = 40;
  config.num_items = 50;
  config.interactions_per_user = 8.0;
  config.num_relations = 4;
  config.num_informative_relations = 3;
  config.triplets_per_item = 4.0;
  config.num_noise_entities = 20;
  config.entities_per_relation_pool = 8;
  config.second_level_pool = 8;
  return data::GenerateSyntheticDataset(config, 2);
}

TEST(TrainingLoopTest, RejectsEmptyTrainSplit) {
  data::Dataset d = SmallDataset();
  d.train.clear();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  EXPECT_FALSE(model->Fit(d, options).ok());
}

TEST(TrainingLoopTest, RecallStoppingMetricDiffersFromAuc) {
  // Both metrics must drive the loop without error and record a best value.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  for (const auto metric :
       {EarlyStopMetric::kAuc, EarlyStopMetric::kRecallAt20}) {
    auto model = CreateModel("BPRMF", hparams);
    TrainOptions options;
    options.max_epochs = 4;
    options.patience = 4;
    options.batch_size = 32;
    options.early_stop_metric = metric;
    ASSERT_TRUE(model->Fit(d, options).ok());
    EXPECT_GT(model->train_stats().best_eval_metric, 0.0);
    EXPECT_LE(model->train_stats().best_eval_metric, 1.0);
  }
}

TEST(TrainingLoopTest, LossCurveLengthMatchesEpochsRun) {
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 5;
  options.patience = 5;
  options.batch_size = 32;
  ASSERT_TRUE(model->Fit(d, options).ok());
  EXPECT_EQ(static_cast<int64_t>(model->train_stats().epoch_losses.size()),
            model->train_stats().epochs_run);
}

TEST(TrainingLoopTest, VerboseLogsStructuredKvLines) {
  // Log assertions go through LogCapture, not stderr scraping.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 32;
  options.verbose = true;
  options.run_label = "bprmf-test";
  LogCapture capture;
  ASSERT_TRUE(model->Fit(d, options).ok());
  EXPECT_TRUE(capture.Contains("dataset=trainer-test"));
  EXPECT_TRUE(capture.Contains("model=bprmf-test"));
  EXPECT_TRUE(capture.Contains("epoch=1"));
  EXPECT_TRUE(capture.Contains(" loss="));
  EXPECT_TRUE(capture.Contains(" eval_metric="));
}

TEST(TrainingLoopTest, MetricsJsonlWritesOneRowPerEpoch) {
  const std::string path = ::testing::TempDir() + "/trainer_epochs.jsonl";
  std::remove(path.c_str());
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 3;
  options.patience = 3;
  options.batch_size = 32;
  options.metrics_jsonl = path;
  options.run_label = "bprmf";
  ASSERT_TRUE(model->Fit(d, options).ok());
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(static_cast<int64_t>(lines.size()),
            model->train_stats().epochs_run);
  EXPECT_NE(lines[0].find("\"dataset\": \"trainer-test\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"model\": \"bprmf\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"epoch\": 1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"samples_per_sec\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TrainingLoopTest, MetricsJsonlEnvVarSuppliesDefault) {
  // The CGKGR_METRICS_JSONL environment variable is the process-wide
  // default when TrainOptions::metrics_jsonl is empty; it must keep
  // working alongside the TrainOptions redesign.
  const std::string path = ::testing::TempDir() + "/trainer_env.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("CGKGR_METRICS_JSONL", path.c_str(), 1), 0);
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 32;
  const Status status = model->Fit(d, options);
  ASSERT_EQ(unsetenv("CGKGR_METRICS_JSONL"), 0);
  ASSERT_TRUE(status.ok());
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(static_cast<int64_t>(lines.size()),
            model->train_stats().epochs_run);
  std::remove(path.c_str());
}

// --- parallel trainer ---

TEST(ParallelTrainerTest, BitIdenticalAcrossThreadCountsForModelZoo) {
  // The determinism contract (parallel_trainer.h): for a fixed seed, the
  // loss curve and the trained parameters are bit-identical for every
  // num_threads. Exact equality on doubles/floats is intentional.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  for (const auto& name : AllModelNames()) {
    std::vector<double> serial_losses;
    std::vector<float> serial_scores;
    for (const int64_t threads : {1, 2, 4}) {
      auto model = CreateModel(name, hparams);
      TrainOptions options;
      options.max_epochs = 2;
      options.patience = 2;
      options.batch_size = 48;  // 3 shards per full batch at 16 rows/shard
      options.seed = 17;
      options.num_threads = threads;
      ASSERT_TRUE(model->Fit(d, options).ok()) << name;
      std::vector<float> scores;
      model->ScorePairs({0, 1, 2, 3}, {5, 6, 7, 8}, &scores);
      if (threads == 1) {
        serial_losses = model->train_stats().epoch_losses;
        serial_scores = scores;
        continue;
      }
      EXPECT_EQ(model->train_stats().epoch_losses, serial_losses)
          << name << " threads=" << threads;
      ASSERT_EQ(scores.size(), serial_scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], serial_scores[i])
            << name << " threads=" << threads << " score " << i;
      }
    }
  }
}

TEST(ParallelTrainerTest, BaselineTrainingBitsArePinnedAtOneAndTwoLanes) {
  // Every score of a one-epoch fit, pinned across commits at one and two
  // lanes: a kernel or autograd change that moves a baseline's training bits
  // fails here. The zoo test above compares lane counts within one build,
  // and serve_test pins width-8 fits on one lane; width 16 runs the
  // register-resident Gemm and relation kernels.
  const std::map<std::string, uint64_t> kFingerprints = {
      {"BPRMF", 5170773494306403824ULL},
      {"NFM", 16601428187489100331ULL},
      {"CKE", 11837491169828892692ULL},
      {"RippleNet", 9049183272254346052ULL},
      {"KGCN", 18280504040186046315ULL},
      {"KGNN-LS", 11444092182546149267ULL},
      {"KGAT", 7069208022568037521ULL},
      {"CKAN", 9118961005886001326ULL}};
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 16;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  for (const auto& [name, fingerprint] : kFingerprints) {
    for (const int64_t threads : {1, 2}) {
      auto model = CreateModel(name, hparams);
      TrainOptions options;
      options.max_epochs = 1;
      options.patience = 1;
      options.batch_size = 48;
      options.seed = 23;
      options.num_threads = threads;
      ASSERT_TRUE(model->Fit(d, options).ok()) << name;
      const serve::Snapshot snapshot = serve::BuildSnapshot(model.get(), d);
      EXPECT_EQ(serve::SnapshotFingerprint(snapshot), fingerprint)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelTrainerTest, EpochCoversEveryInteractionExactlyOnce) {
  // Each training pair reaches exactly one shard's LossFn per epoch, with a
  // negative drawn for it, whether the shards run inline or on four lanes.
  const auto train = MakeTrain(10, 7);
  const auto positives = data::Dataset::BuildPositives(train, 10);
  std::multiset<std::pair<int64_t, int64_t>> expected;
  for (const auto& x : train) expected.insert({x.user, x.item});

  for (const int64_t threads : {1, 4}) {
    TrainOptions options;
    options.batch_size = 64;  // several shards per batch, then a short tail
    options.num_threads = threads;
    nn::ParameterStore store;
    Rng init_rng(1);
    nn::EmbeddingTable users(&store, "u", 10, 4, &init_rng);
    nn::EmbeddingTable items(&store, "i", 50, 4, &init_rng);
    nn::AdamOptimizer optimizer(store.parameters(), nn::AdamOptions());
    ParallelTrainer trainer(options, &store, &optimizer);

    Mutex mu;
    std::multiset<std::pair<int64_t, int64_t>> seen;
    auto loss_fn = [&](const TrainBatch& batch, Rng* /*rng*/) {
      EXPECT_LE(batch.users.size(), 64u);
      EXPECT_EQ(batch.users.size(), batch.positive_items.size());
      EXPECT_EQ(batch.users.size(), batch.negative_items.size());
      {
        MutexLock lock(&mu);
        for (size_t i = 0; i < batch.users.size(); ++i) {
          seen.insert({batch.users[i], batch.positive_items[i]});
        }
      }
      autograd::Variable u = users.Lookup(batch.users);
      return autograd::BPRLoss(
          autograd::RowDot(u, items.Lookup(batch.positive_items)),
          autograd::RowDot(u, items.Lookup(batch.negative_items)));
    };
    Rng epoch_rng(1);
    trainer.RunEpoch(train, positives, 50, &epoch_rng, loss_fn);
    EXPECT_EQ(seen, expected) << "threads=" << threads;
  }
}

TEST(ParallelTrainerTest, GradReductionMatchesSerialUnderHammer) {
  // Direct harness over ParallelTrainer: a BPR matrix-factorization loss,
  // eight epochs, six shards per batch on up to four lanes. Every parameter
  // element must match the serial run exactly. Under TSan (tools/check.sh
  // with CGKGR_CHECK_TSAN=1) this doubles as the concurrency hammer for
  // GradSinkGuard, the shard tasks, and the tree reduction.
  const auto train = MakeTrain(32, 12);
  const auto positives = data::Dataset::BuildPositives(train, 32);

  auto run = [&](int64_t threads) {
    TrainOptions options;
    options.batch_size = 96;  // 6 shards per batch
    options.seed = 7;
    options.num_threads = threads;
    nn::ParameterStore store;
    Rng init_rng(11);
    nn::EmbeddingTable users(&store, "u", 32, 16, &init_rng);
    nn::EmbeddingTable items(&store, "i", 50, 16, &init_rng);
    nn::AdamOptimizer optimizer(store.parameters(), nn::AdamOptions());
    ParallelTrainer trainer(options, &store, &optimizer);
    EXPECT_EQ(trainer.num_threads(), threads);
    auto loss_fn = [&](const TrainBatch& batch, Rng* /*rng*/) {
      autograd::Variable u = users.Lookup(batch.users);
      autograd::Variable p = items.Lookup(batch.positive_items);
      autograd::Variable n = items.Lookup(batch.negative_items);
      return autograd::BPRLoss(autograd::RowDot(u, p),
                               autograd::RowDot(u, n));
    };
    Rng epoch_rng(options.seed);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 8; ++epoch) {
      losses.push_back(
          trainer.RunEpoch(train, positives, 50, &epoch_rng, loss_fn));
    }
    std::vector<float> flat;
    for (const auto& param : store.parameters()) {
      const tensor::Tensor& v = param.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return std::make_pair(losses, flat);
  };

  const auto serial = run(1);
  EXPECT_GT(serial.first.front(), serial.first.back());  // it learns
  for (const int64_t threads : {2, 4}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    ASSERT_EQ(parallel.second.size(), serial.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i) {
      ASSERT_EQ(parallel.second[i], serial.second[i])
          << "threads=" << threads << " param element " << i;
    }
  }
}

}  // namespace
}  // namespace models
}  // namespace cgkgr
