// Tests for the CG-KGR core model: config parsing, every encoder /
// aggregator / guidance-mode / depth variant trains and scores, learning
// actually happens, attention inspection is normalized, training is
// deterministic per seed, scores do not depend on the lane count, and the
// tape-free scoring forward reproduces Forward's pinned snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cgkgr_config.h"
#include "core/cgkgr_model.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "models/recommender.h"
#include "serve/delta.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace core {
namespace {

data::Dataset TestDataset(uint64_t split_seed = 5) {
  data::SyntheticConfig config;
  config.name = "model-test";
  config.seed = 77;
  config.num_users = 50;
  config.num_items = 70;
  config.interactions_per_user = 10.0;
  config.num_relations = 6;
  config.num_informative_relations = 4;
  config.triplets_per_item = 6.0;
  config.informative_ratio = 0.7;
  config.entities_per_relation_pool = 12;
  config.num_noise_entities = 40;
  config.second_level_pool = 14;
  return data::GenerateSyntheticDataset(config, split_seed);
}

CgKgrConfig SmallModelConfig() {
  CgKgrConfig config;
  config.embedding_dim = 8;
  config.depth = 1;
  config.num_heads = 2;
  config.user_sample_size = 4;
  config.item_sample_size = 3;
  config.kg_sample_size = 3;
  config.learning_rate = 1e-2f;
  return config;
}

models::TrainOptions QuickTrain(int64_t epochs = 5) {
  models::TrainOptions options;
  options.max_epochs = epochs;
  options.patience = epochs;
  options.batch_size = 64;
  options.seed = 11;
  return options;
}

// --- config ---

TEST(ConfigTest, ParseEncoder) {
  EXPECT_EQ(ParseEncoder("sum").value(), EncoderType::kSum);
  EXPECT_EQ(ParseEncoder("mean").value(), EncoderType::kMean);
  EXPECT_EQ(ParseEncoder("pmax").value(), EncoderType::kPairwiseMax);
  EXPECT_FALSE(ParseEncoder("nope").ok());
}

TEST(ConfigTest, ParseAggregator) {
  EXPECT_EQ(ParseAggregator("sum").value(), AggregatorType::kSum);
  EXPECT_EQ(ParseAggregator("concat").value(), AggregatorType::kConcat);
  EXPECT_EQ(ParseAggregator("neighbor").value(), AggregatorType::kNeighbor);
  EXPECT_EQ(ParseAggregator("ngh").value(), AggregatorType::kNeighbor);
  EXPECT_FALSE(ParseAggregator("max").ok());
}

TEST(ConfigTest, NamesRoundTrip) {
  for (const auto e :
       {EncoderType::kSum, EncoderType::kMean, EncoderType::kPairwiseMax}) {
    EXPECT_EQ(ParseEncoder(EncoderName(e)).value(), e);
  }
  for (const auto a : {AggregatorType::kSum, AggregatorType::kConcat,
                       AggregatorType::kNeighbor}) {
    EXPECT_EQ(ParseAggregator(AggregatorName(a)).value(), a);
  }
}

TEST(ConfigTest, FromPresetCopiesFields) {
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 24;
  hparams.depth = 2;
  hparams.encoder = "pmax";
  hparams.aggregator = "ngh";
  const CgKgrConfig config = CgKgrConfig::FromPreset(hparams);
  EXPECT_EQ(config.embedding_dim, 24);
  EXPECT_EQ(config.depth, 2);
  EXPECT_EQ(config.encoder, EncoderType::kPairwiseMax);
  EXPECT_EQ(config.aggregator, AggregatorType::kNeighbor);
}

// --- training sanity ---

double TestAuc(models::RecommenderModel* model, const data::Dataset& d) {
  Rng rng(123);
  const auto positives = d.BuildAllPositives();
  const auto examples =
      data::MakeCtrExamples(d.test, positives, d.num_items, &rng);
  return eval::EvaluateCtr(model, examples).auc;
}

TEST(CgKgrModelTest, LearnsAboveChance) {
  const data::Dataset d = TestDataset();
  CgKgrModel model(SmallModelConfig());
  ASSERT_TRUE(model.Fit(d, QuickTrain(8)).ok());
  EXPECT_GT(TestAuc(&model, d), 0.65);
  EXPECT_GE(model.train_stats().epochs_run, 1);
  EXPECT_GE(model.train_stats().best_epoch, 1);
  EXPECT_GT(model.train_stats().seconds_per_epoch, 0.0);
}

TEST(CgKgrModelTest, LossDecreasesOverEpochs) {
  const data::Dataset d = TestDataset();
  CgKgrModel model(SmallModelConfig());
  ASSERT_TRUE(model.Fit(d, QuickTrain(6)).ok());
  const auto& losses = model.train_stats().epoch_losses;
  ASSERT_GE(losses.size(), 3u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(CgKgrModelTest, ScorePairsShapeAndFiniteness) {
  const data::Dataset d = TestDataset();
  CgKgrModel model(SmallModelConfig());
  ASSERT_TRUE(model.Fit(d, QuickTrain(2)).ok());
  std::vector<float> scores;
  model.ScorePairs({0, 1, 2}, {3, 4, 5}, &scores);
  ASSERT_EQ(scores.size(), 3u);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(CgKgrModelTest, DeterministicPerSeed) {
  const data::Dataset d = TestDataset();
  std::vector<float> first;
  std::vector<float> second;
  for (auto* out : {&first, &second}) {
    CgKgrModel model(SmallModelConfig());
    ASSERT_TRUE(model.Fit(d, QuickTrain(3)).ok());
    model.ScorePairs({0, 1, 2, 3}, {1, 2, 3, 4}, out);
  }
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(first[i], second[i]);
  }
}

TEST(CgKgrModelTest, EmptyDatasetRejected) {
  data::Dataset empty;
  CgKgrModel model(SmallModelConfig());
  EXPECT_FALSE(model.Fit(empty, QuickTrain(1)).ok());
}

TEST(CgKgrModelTest, InvalidSamplingSettingsRejectedBeforeTraining) {
  const data::Dataset d = TestDataset();
  const std::vector<std::pair<std::string, std::function<void(CgKgrConfig*)>>>
      invalid = {
          {"inference_samples 0", [](CgKgrConfig* c) { c->inference_samples = 0; }},
          {"inference_samples -2", [](CgKgrConfig* c) { c->inference_samples = -2; }},
          {"user_sample_size 0", [](CgKgrConfig* c) { c->user_sample_size = 0; }},
          {"item_sample_size 0", [](CgKgrConfig* c) { c->item_sample_size = 0; }},
          {"kg_sample_size 0", [](CgKgrConfig* c) { c->kg_sample_size = 0; }},
          {"kg_sample_size -1 at depth 2", [](CgKgrConfig* c) {
             c->kg_sample_size = -1;
             c->depth = 2;
           }}};
  for (const auto& [name, edit] : invalid) {
    CgKgrConfig config = SmallModelConfig();
    edit(&config);
    CgKgrModel fitted(config);
    const Status fit = fitted.Fit(d, QuickTrain(1));
    EXPECT_EQ(fit.code(), StatusCode::kInvalidArgument) << name << ": " << fit.ToString();
    CgKgrModel prepared(config);
    const Status prepare = prepared.Prepare(d, 3);
    EXPECT_EQ(prepare.code(), StatusCode::kInvalidArgument)
        << name << ": " << prepare.ToString();
  }
  // A switched-off stage never samples, so its size is not checked.
  const std::vector<std::pair<std::string, std::function<void(CgKgrConfig*)>>>
      switched_off = {
          {"w/o UI, sizes 0 and -3", [](CgKgrConfig* c) {
             c->use_interactive_summarization = false;
             c->user_sample_size = 0;
             c->item_sample_size = -3;
           }},
          {"depth 0, kg size 0", [](CgKgrConfig* c) {
             c->depth = 0;
             c->kg_sample_size = 0;
           }}};
  for (const auto& [name, edit] : switched_off) {
    CgKgrConfig config = SmallModelConfig();
    edit(&config);
    CgKgrModel model(config);
    ASSERT_TRUE(model.Fit(d, QuickTrain(1)).ok()) << name;
    std::vector<float> scores;
    model.ScorePairs({0, 1}, {2, 3}, &scores);
    EXPECT_TRUE(std::isfinite(scores[0])) << name;
  }
}

// --- variants: every encoder x aggregator combination runs ---

class VariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(VariantTest, TrainsAndScores) {
  const auto [encoder, aggregator] = GetParam();
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.encoder = ParseEncoder(encoder).value();
  config.aggregator = ParseAggregator(aggregator).value();
  CgKgrModel model(config);
  ASSERT_TRUE(model.Fit(d, QuickTrain(3)).ok());
  std::vector<float> scores;
  model.ScorePairs({0, 1}, {2, 3}, &scores);
  EXPECT_TRUE(std::isfinite(scores[0]));
}

INSTANTIATE_TEST_SUITE_P(
    EncodersAndAggregators, VariantTest,
    ::testing::Combine(::testing::Values("sum", "mean", "pmax"),
                       ::testing::Values("sum", "concat", "neighbor")));

// --- depth sweep (Table XI shape) ---

class DepthTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DepthTest, TrainsAtEveryDepth) {
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.depth = GetParam();
  config.kg_sample_size = 2;
  CgKgrModel model(config);
  ASSERT_TRUE(model.Fit(d, QuickTrain(2)).ok());
  std::vector<float> scores;
  model.ScorePairs({0}, {1}, &scores);
  EXPECT_TRUE(std::isfinite(scores[0]));
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthTest, ::testing::Values(0, 1, 2, 3));

// --- ablation switches (Tables VII/VIII) ---

TEST(AblationTest, AllGuidanceModesRun) {
  const data::Dataset d = TestDataset();
  for (const auto mode :
       {GuidanceMode::kFull, GuidanceMode::kNodeEmbeddingsOnly,
        GuidanceMode::kPreferenceFilterOnly,
        GuidanceMode::kAttractionGroupOnly}) {
    CgKgrConfig config = SmallModelConfig();
    config.guidance_mode = mode;
    CgKgrModel model(config);
    ASSERT_TRUE(model.Fit(d, QuickTrain(2)).ok());
  }
}

TEST(AblationTest, ComponentSwitchesRun) {
  const data::Dataset d = TestDataset();
  for (int variant = 0; variant < 3; ++variant) {
    CgKgrConfig config = SmallModelConfig();
    if (variant == 0) config.use_interactive_summarization = false;
    if (variant == 1) config.use_knowledge_attention = false;
    if (variant == 2) config.use_collaborative_guidance = false;
    CgKgrModel model(config);
    ASSERT_TRUE(model.Fit(d, QuickTrain(2)).ok());
    EXPECT_GT(TestAuc(&model, d), 0.5);
  }
}

TEST(AblationTest, FullModelBeatsNoInteractiveSummarization) {
  // The paper's strongest component result (w/o UI collapses hardest).
  const data::Dataset d = TestDataset();
  CgKgrModel full(SmallModelConfig());
  ASSERT_TRUE(full.Fit(d, QuickTrain(8)).ok());
  CgKgrConfig ablated_config = SmallModelConfig();
  ablated_config.use_interactive_summarization = false;
  CgKgrModel ablated(ablated_config);
  ASSERT_TRUE(ablated.Fit(d, QuickTrain(8)).ok());
  EXPECT_GT(TestAuc(&full, d) + 0.02, TestAuc(&ablated, d));
}

// --- persistence ---

TEST(CgKgrModelTest, SaveLoadReproducesScores) {
  const data::Dataset d = TestDataset();
  const std::string path = "/tmp/cgkgr_model_test.params";
  std::vector<float> trained_scores;
  {
    CgKgrModel model(SmallModelConfig());
    ASSERT_TRUE(model.Fit(d, QuickTrain(4)).ok());
    ASSERT_TRUE(models::SaveModelState(model, path).ok());
    model.ScorePairs({0, 1, 2}, {3, 4, 5}, &trained_scores);
  }
  CgKgrModel restored(SmallModelConfig());
  // Prepare with the same seed reproduces eval sampling streams, then the
  // loaded parameters reproduce the trained scores exactly.
  ASSERT_TRUE(restored.Prepare(d, QuickTrain(4).seed).ok());
  ASSERT_TRUE(models::LoadModelState(&restored, path).ok());
  std::vector<float> restored_scores;
  restored.ScorePairs({0, 1, 2}, {3, 4, 5}, &restored_scores);
  ASSERT_EQ(restored_scores.size(), trained_scores.size());
  for (size_t i = 0; i < trained_scores.size(); ++i) {
    EXPECT_FLOAT_EQ(restored_scores[i], trained_scores[i]);
  }
}

TEST(CgKgrModelTest, DegreeBiasedSamplingTrains) {
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.sampling_strategy = graph::SamplingStrategy::kDegreeBiased;
  CgKgrModel model(config);
  ASSERT_TRUE(model.Fit(d, QuickTrain(4)).ok());
  EXPECT_GT(TestAuc(&model, d), 0.55);
}

// --- scoring is independent of the lane count ---

/// Trains `config` at `lanes` (Fit sizes the scoring lanes too) and scores
/// one 2,500-pair call: chunks of 1,024, 1,024 and 452 pairs, the last one
/// ending in a ragged 4-row slice.
std::vector<float> ScoreAtLanes(const CgKgrConfig& config,
                                const data::Dataset& d, int64_t lanes) {
  models::TrainOptions options = QuickTrain(2);
  options.num_threads = lanes;
  CgKgrModel model(config);
  EXPECT_TRUE(model.Fit(d, options).ok());
  std::vector<int64_t> users;
  std::vector<int64_t> items;
  for (int64_t p = 0; p < 2500; ++p) {
    users.push_back(p % d.num_users);
    items.push_back((p * 7 + p / d.num_users) % d.num_items);
  }
  std::vector<float> scores;
  model.ScorePairs(users, items, &scores);
  return scores;
}

TEST(ScoreLanesTest, ScoresBitIdenticalAcrossLaneCounts) {
  const data::Dataset d = TestDataset();
  std::vector<std::pair<std::string, CgKgrConfig>> variants;
  variants.emplace_back("full", SmallModelConfig());
  for (const int64_t depth : {0, 3}) {
    CgKgrConfig config = SmallModelConfig();
    config.depth = depth;
    variants.emplace_back("depth " + std::to_string(depth), config);
  }
  CgKgrConfig no_ui = SmallModelConfig();
  no_ui.use_interactive_summarization = false;
  variants.emplace_back("w/o UI", no_ui);
  CgKgrConfig no_att = SmallModelConfig();
  no_att.use_knowledge_attention = false;
  variants.emplace_back("w/o ATT", no_att);
  for (const int64_t passes : {1, 3}) {
    CgKgrConfig config = SmallModelConfig();
    config.inference_samples = passes;
    variants.emplace_back("passes " + std::to_string(passes), config);
  }
  CgKgrConfig biased = SmallModelConfig();
  biased.sampling_strategy = graph::SamplingStrategy::kDegreeBiased;
  variants.emplace_back("degree-biased", biased);

  for (const auto& [name, config] : variants) {
    const std::vector<float> serial = ScoreAtLanes(config, d, 1);
    ASSERT_EQ(serial.size(), 2500u) << name;
    for (const int64_t lanes : {2, 4}) {
      const std::vector<float> parallel = ScoreAtLanes(config, d, lanes);
      ASSERT_EQ(parallel.size(), serial.size()) << name;
      int64_t mismatches = 0;
      for (size_t i = 0; i < serial.size(); ++i) {
        if (parallel[i] != serial[i] || !std::isfinite(parallel[i])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << name << " at " << lanes << " lanes";
    }
  }
}

TEST(ScoreLanesTest, SnapshotReproducesSerialScoring) {
  // The fingerprint the same body produced when ScorePairs was a serial
  // per-chunk loop: the sliced, parallel rewrite scores the same bits.
  constexpr uint64_t kSerialFingerprint = 17633019879161496249ULL;
  const data::Dataset d = TestDataset();
  for (const int64_t lanes : {1, 2, 4}) {
    models::TrainOptions options = QuickTrain(3);
    options.num_threads = lanes;
    CgKgrModel model(SmallModelConfig());
    ASSERT_TRUE(model.Fit(d, options).ok());
    EXPECT_EQ(serve::SnapshotFingerprint(serve::BuildSnapshot(&model, d)),
              kSerialFingerprint)
        << lanes << " lanes";
  }
}

// --- the scoring forward against Forward's goldens ---

/// SnapshotFingerprint of a 1-epoch fit at `lanes` lanes: every score of
/// the 50 x 70 test matrix.
uint64_t SnapshotGolden(const CgKgrConfig& config, const data::Dataset& d,
                        int64_t lanes) {
  models::TrainOptions options = QuickTrain(1);
  options.num_threads = lanes;
  CgKgrModel model(config);
  EXPECT_TRUE(model.Fit(d, options).ok());
  return serve::SnapshotFingerprint(serve::BuildSnapshot(&model, d));
}

TEST(ScoreGoldenTest, VariantsMatchForwardGoldens) {
  // Pinned when ScoreChunk ran the autograd Forward on every slice. The
  // small shape (d = 8, sample sizes 4/3/3) keeps every kernel on its
  // generic width.
  struct Golden {
    std::string name;
    std::function<void(CgKgrConfig*)> edit;
    uint64_t fingerprint;
  };
  std::vector<Golden> goldens;
  const std::vector<std::pair<std::string, uint64_t>> pairs = {
      {"sum/sum", 2480763476327237364ULL},
      {"sum/concat", 18293788866670184794ULL},
      {"sum/neighbor", 7519136332486994507ULL},
      {"mean/sum", 17837100808708798505ULL},
      {"mean/concat", 18225974104608906060ULL},
      {"mean/neighbor", 481837076506943586ULL},
      {"pmax/sum", 3316091495723650256ULL},
      {"pmax/concat", 534285816829518923ULL},
      {"pmax/neighbor", 9244328253934272925ULL}};
  for (const auto& [name, fingerprint] : pairs) {
    const std::string encoder = name.substr(0, name.find('/'));
    const std::string aggregator = name.substr(name.find('/') + 1);
    goldens.push_back({name,
                       [encoder, aggregator](CgKgrConfig* c) {
                         c->encoder = ParseEncoder(encoder).value();
                         c->aggregator = ParseAggregator(aggregator).value();
                       },
                       fingerprint});
  }
  goldens.push_back(
      {"NE",
       [](CgKgrConfig* c) {
         c->guidance_mode = GuidanceMode::kNodeEmbeddingsOnly;
       },
       11019187894844391740ULL});
  goldens.push_back(
      {"PF",
       [](CgKgrConfig* c) {
         c->guidance_mode = GuidanceMode::kPreferenceFilterOnly;
       },
       1323806137946190747ULL});
  goldens.push_back(
      {"AG",
       [](CgKgrConfig* c) {
         c->guidance_mode = GuidanceMode::kAttractionGroupOnly;
       },
       14192395113529485800ULL});
  goldens.push_back(
      {"w/o UI",
       [](CgKgrConfig* c) { c->use_interactive_summarization = false; },
       6199723285820470866ULL});
  goldens.push_back(
      {"w/o ATT", [](CgKgrConfig* c) { c->use_knowledge_attention = false; },
       12129815170267029440ULL});
  goldens.push_back(
      {"w/o CG", [](CgKgrConfig* c) { c->use_collaborative_guidance = false; },
       11404212835645182174ULL});
  goldens.push_back({"depth 0", [](CgKgrConfig* c) { c->depth = 0; },
                     1591913219431282285ULL});
  goldens.push_back({"depth 2", [](CgKgrConfig* c) { c->depth = 2; },
                     16810810165492975861ULL});
  goldens.push_back({"depth 3", [](CgKgrConfig* c) { c->depth = 3; },
                     7354108447907207230ULL});
  goldens.push_back({"passes 1",
                     [](CgKgrConfig* c) { c->inference_samples = 1; },
                     15002876880128787158ULL});
  goldens.push_back({"passes 3",
                     [](CgKgrConfig* c) { c->inference_samples = 3; },
                     708625991482924705ULL});
  goldens.push_back({"degree-biased",
                     [](CgKgrConfig* c) {
                       c->sampling_strategy =
                           graph::SamplingStrategy::kDegreeBiased;
                     },
                     6085197393421714655ULL});

  const data::Dataset d = TestDataset();
  for (const Golden& golden : goldens) {
    CgKgrConfig config = SmallModelConfig();
    golden.edit(&config);
    EXPECT_EQ(SnapshotGolden(config, d, 1), golden.fingerprint)
        << golden.name;
  }
}

TEST(ScoreGoldenTest, MovieShapeMatchesForwardGolden) {
  // The movie preset's shape (d = 16, |S(u)| = 8, |S_UI(i)| = 4,
  // |S_KG| = 4, depth 2, 4 heads) runs the width-16 and width-4 fast paths.
  constexpr uint64_t kMovieShapeFingerprint = 16848831242697579897ULL;
  CgKgrConfig config = SmallModelConfig();
  config.embedding_dim = 16;
  config.user_sample_size = 8;
  config.item_sample_size = 4;
  config.kg_sample_size = 4;
  config.depth = 2;
  config.num_heads = 4;
  const data::Dataset d = TestDataset();
  for (const int64_t lanes : {1, 2, 4}) {
    EXPECT_EQ(SnapshotGolden(config, d, lanes), kMovieShapeFingerprint)
        << lanes << " lanes";
  }
}

TEST(ScoreGoldenTest, MovieWidthWithKernelTailsMatchesForwardGolden) {
  // d = 16 with sample sizes that are not multiples of 4 (6/3/5) and an odd
  // head count: the four-lane dot products and the paired relation
  // products run their tails inside the model. Pinned on the parent of the
  // four-lane kernels, where ScoreChunk ran the row kernels and Dot.
  constexpr uint64_t kTailFingerprint = 15693426345378337981ULL;
  CgKgrConfig config = SmallModelConfig();
  config.embedding_dim = 16;
  config.user_sample_size = 6;
  config.item_sample_size = 3;
  config.kg_sample_size = 5;
  config.depth = 2;
  config.num_heads = 3;
  config.inference_samples = 3;
  const data::Dataset d = TestDataset();
  for (const int64_t lanes : {1, 2, 4}) {
    EXPECT_EQ(SnapshotGolden(config, d, lanes), kTailFingerprint)
        << lanes << " lanes";
  }
}

// --- score lanes that live with the model ---

/// 600 pairs over the test matrix: a 1,024-pair chunk would hide a ragged
/// last slice, so this one call ends in a 24-row slice.
std::vector<float> ScoreSomePairs(models::RecommenderModel* model,
                                  const data::Dataset& d) {
  std::vector<int64_t> users;
  std::vector<int64_t> items;
  for (int64_t p = 0; p < 600; ++p) {
    users.push_back(p % d.num_users);
    items.push_back((p * 11 + p / d.num_users) % d.num_items);
  }
  std::vector<float> scores;
  model->ScorePairs(users, items, &scores);
  return scores;
}

void ExpectSameBits(const std::vector<float>& actual,
                    const std::vector<float>& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  int64_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (std::memcmp(&actual[i], &expected[i], sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
}

TEST(ScoreLanesTest, LanesFollowEveryRefitAndPrepare) {
  // One model's lanes are rebuilt whenever score_lanes() changes; each
  // state must score like a fresh model in the same state.
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.embedding_dim = 16;
  config.kg_sample_size = 5;
  auto fresh_fit = [&](int64_t lanes) {
    models::TrainOptions options = QuickTrain(2);
    options.num_threads = lanes;
    CgKgrModel model(config);
    EXPECT_TRUE(model.Fit(d, options).ok());
    return ScoreSomePairs(&model, d);
  };
  CgKgrModel reused(config);
  models::TrainOptions options = QuickTrain(2);
  options.num_threads = 2;
  ASSERT_TRUE(reused.Fit(d, options).ok());
  ExpectSameBits(ScoreSomePairs(&reused, d), fresh_fit(2), "fit at 2 lanes");
  options.num_threads = 4;
  ASSERT_TRUE(reused.Fit(d, options).ok());
  ExpectSameBits(ScoreSomePairs(&reused, d), fresh_fit(4), "refit at 4 lanes");
  ASSERT_TRUE(reused.Prepare(d, 5).ok());
  CgKgrModel prepared(config);
  ASSERT_TRUE(prepared.Prepare(d, 5).ok());
  ExpectSameBits(ScoreSomePairs(&reused, d), ScoreSomePairs(&prepared, d),
                 "prepared");
}

TEST(ScoreLanesTest, ConcurrentCallersGetTheSerialBits) {
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.inference_samples = 3;
  models::TrainOptions options = QuickTrain(2);
  options.num_threads = 1;
  CgKgrModel serial(config);
  ASSERT_TRUE(serial.Fit(d, options).ok());
  const std::vector<float> expected = ScoreSomePairs(&serial, d);
  options.num_threads = 2;
  CgKgrModel shared(config);
  ASSERT_TRUE(shared.Fit(d, options).ok());
  std::vector<std::vector<float>> results(3);
  std::vector<std::thread> callers;
  for (std::vector<float>& result : results) {
    callers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        result = ScoreSomePairs(&shared, d);
        if (result != expected) return;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < results.size(); ++t) {
    ExpectSameBits(results[t], expected, "caller " + std::to_string(t));
  }
}

// --- attention inspection (Fig. 5 machinery) ---

TEST(InspectionTest, WeightsAreNormalizedOverSampledNeighbors) {
  const data::Dataset d = TestDataset();
  CgKgrConfig config = SmallModelConfig();
  config.kg_sample_size = 4;
  CgKgrModel model(config);
  ASSERT_TRUE(model.Fit(d, QuickTrain(3)).ok());
  const auto inspection = model.InspectKnowledgeAttention(0, 1, 99);
  ASSERT_EQ(inspection.weights.size(), 4u);
  ASSERT_EQ(inspection.entities.size(), 4u);
  ASSERT_EQ(inspection.relations.size(), 4u);
  float total = 0.0f;
  for (float w : inspection.weights) {
    EXPECT_GE(w, 0.0f);
    total += w;
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

TEST(InspectionTest, DifferentUsersDifferentWeights) {
  // The whole point of collaborative guidance (Fig. 5b vs 5c): the same
  // item's triplet weights change with the target user.
  const data::Dataset d = TestDataset();
  CgKgrModel model(SmallModelConfig());
  ASSERT_TRUE(model.Fit(d, QuickTrain(6)).ok());
  const auto a = model.InspectKnowledgeAttention(0, 1, 7);
  const auto b = model.InspectKnowledgeAttention(1, 1, 7);
  ASSERT_EQ(a.entities, b.entities);  // same seed -> same sampled triplets
  float diff = 0.0f;
  for (size_t i = 0; i < a.weights.size(); ++i) {
    diff += std::abs(a.weights[i] - b.weights[i]);
  }
  EXPECT_GT(diff, 1e-6f);
}

}  // namespace
}  // namespace core
}  // namespace cgkgr
