// Tests for src/eval: ranking metrics against hand-computed values, AUC/F1,
// the Wilcoxon signed-rank test against reference values, the full-ranking
// Top-K protocol driven by mock scorers, the ranking order RanksBefore,
// and trial aggregation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/wilcoxon.h"

namespace cgkgr {
namespace eval {
namespace {

// --- Recall / NDCG ---

TEST(MetricsTest, RecallAtKHandComputed) {
  const std::vector<int64_t> ranked = {9, 4, 7, 1, 0};
  const std::vector<int64_t> relevant = {1, 4};  // sorted
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 1), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 4), 1.0);
}

TEST(MetricsTest, RecallEdgeCases) {
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2}, {}, 5), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2}, {1, 2}, 10), 1.0);  // k > list size
  EXPECT_DOUBLE_EQ(RecallAtK({}, {1}, 5), 0.0);
}

TEST(MetricsTest, NdcgAtKHandComputed) {
  // One relevant item at rank 2 (0-indexed position 1): DCG = 1/log2(3).
  const std::vector<int64_t> ranked = {9, 4, 7};
  const std::vector<int64_t> relevant = {4};
  const double expected = (1.0 / std::log2(3.0)) / 1.0;
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 3), expected, 1e-10);
}

TEST(MetricsTest, NdcgPerfectRankingIsOne) {
  const std::vector<int64_t> ranked = {1, 2, 3, 4};
  const std::vector<int64_t> relevant = {1, 2};
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 4), 1.0, 1e-10);
}

TEST(MetricsTest, NdcgOrderSensitive) {
  const std::vector<int64_t> relevant = {1, 2};
  const double good = NdcgAtK({1, 2, 3, 4}, relevant, 4);
  const double bad = NdcgAtK({3, 4, 1, 2}, relevant, 4);
  EXPECT_GT(good, bad);
  EXPECT_GT(bad, 0.0);
}

// --- AUC / F1 ---

TEST(MetricsTest, PrecisionAtKHandComputed) {
  const std::vector<int64_t> ranked = {9, 4, 7, 1};
  const std::vector<int64_t> relevant = {1, 4};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 4), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 1), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, {}, 2), 0.0);
}

TEST(MetricsTest, HitRateAtK) {
  const std::vector<int64_t> ranked = {9, 4, 7};
  EXPECT_DOUBLE_EQ(HitRateAtK(ranked, {4}, 1), 0.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(ranked, {4}, 2), 1.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(ranked, {0}, 3), 0.0);
}

TEST(MetricsTest, ReciprocalRank) {
  EXPECT_DOUBLE_EQ(ReciprocalRank({9, 4, 7}, {4}), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRank({4, 9}, {4}), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({9, 7}, {4}), 0.0);
}

TEST(MetricsTest, AveragePrecisionHandComputed) {
  // Relevant at positions 1 and 3 (1-indexed): AP = (1/1 + 2/3) / 2.
  const std::vector<int64_t> ranked = {4, 9, 1, 7};
  const std::vector<int64_t> relevant = {1, 4};
  EXPECT_NEAR(AveragePrecision(ranked, relevant), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
  EXPECT_DOUBLE_EQ(AveragePrecision(ranked, {}), 0.0);
}

TEST(MetricsTest, PerfectRankingMaximizesAllRankMetrics) {
  const std::vector<int64_t> ranked = {1, 2, 3, 4};
  const std::vector<int64_t> relevant = {1, 2};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 2), 1.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(ranked, relevant, 1), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(ranked, relevant), 1.0);
  EXPECT_DOUBLE_EQ(AveragePrecision(ranked, relevant), 1.0);
}

TEST(MetricsTest, AucPerfectSeparation) {
  EXPECT_DOUBLE_EQ(Auc({0.9f, 0.8f, 0.2f, 0.1f}, {1, 1, 0, 0}), 1.0);
}

TEST(MetricsTest, AucInvertedIsZero) {
  EXPECT_DOUBLE_EQ(Auc({0.1f, 0.9f}, {1, 0}), 0.0);
}

TEST(MetricsTest, AucAllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.5f, 0.5f, 0.5f, 0.5f}, {1, 0, 1, 0}), 0.5);
}

TEST(MetricsTest, AucSingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.3f, 0.7f}, {1, 1}), 0.5);
}

TEST(MetricsTest, AucPartialOrdering) {
  // scores: pos {3, 1}, neg {2, 0}: pairs (3>2), (3>0), (1<2), (1>0) = 3/4.
  EXPECT_DOUBLE_EQ(Auc({3.0f, 1.0f, 2.0f, 0.0f}, {1, 1, 0, 0}), 0.75);
}

TEST(MetricsTest, F1HandComputed) {
  // logits: sigmoid(2)=.88 -> 1, sigmoid(-2)=.12 -> 0.
  // predictions {1, 0, 1}; labels {1, 1, 0}: TP=1, FP=1, FN=1 -> F1 = 0.5.
  EXPECT_DOUBLE_EQ(F1Score({2.0f, -2.0f, 2.0f}, {1, 1, 0}), 0.5);
}

TEST(MetricsTest, F1AllCorrect) {
  EXPECT_DOUBLE_EQ(F1Score({5.0f, -5.0f}, {1, 0}), 1.0);
}

TEST(MetricsTest, MeanStd) {
  const MeanStd ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(ms.mean, 5.0, 1e-12);
  EXPECT_NEAR(ms.std, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({3.0}).std, 0.0);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({}).mean, 0.0);
}

// --- Wilcoxon ---

TEST(WilcoxonTest, IdenticalSamplesPValueOne) {
  const std::vector<double> x = {1, 2, 3};
  const WilcoxonResult r = WilcoxonSignedRank(x, x);
  EXPECT_EQ(r.n, 0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WilcoxonTest, KnownSmallSample) {
  // Classic example: differences {1,2,3,4,5} all positive -> W+ = 15,
  // exact two-sided p = 2 * (1/32) = 0.0625.
  const std::vector<double> x = {2, 4, 6, 8, 10};
  const std::vector<double> y = {1, 2, 3, 4, 5};
  const WilcoxonResult r = WilcoxonSignedRank(x, y);
  EXPECT_EQ(r.n, 5);
  EXPECT_DOUBLE_EQ(r.statistic, 15.0);
  EXPECT_NEAR(r.p_value, 0.0625, 1e-9);
}

TEST(WilcoxonTest, SymmetricInSignOfDifferences) {
  const std::vector<double> x = {5, 1, 4, 2};
  const std::vector<double> y = {1, 5, 2, 4};
  const WilcoxonResult xy = WilcoxonSignedRank(x, y);
  const WilcoxonResult yx = WilcoxonSignedRank(y, x);
  EXPECT_NEAR(xy.p_value, yx.p_value, 1e-12);
}

TEST(WilcoxonTest, LargeSampleNormalApproximation) {
  // 30 consistently positive differences: p must be tiny.
  std::vector<double> x(30);
  std::vector<double> y(30);
  for (int i = 0; i < 30; ++i) {
    x[i] = i + 1.5 + 0.01 * i;
    y[i] = i;
  }
  const WilcoxonResult r = WilcoxonSignedRank(x, y);
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(WilcoxonTest, NoEffectLargeSampleHighP) {
  // Alternating +/-1 differences with equal magnitudes.
  std::vector<double> x(40, 0.0);
  std::vector<double> y(40);
  for (int i = 0; i < 40; ++i) y[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const WilcoxonResult r = WilcoxonSignedRank(x, y);
  EXPECT_GT(r.p_value, 0.5);
}

// --- protocols with mock scorers ---

/// Scores pairs by a fixed ground-truth preference matrix.
class OracleScorer : public PairScorer {
 public:
  explicit OracleScorer(std::vector<std::vector<float>> scores)
      : scores_(std::move(scores)) {}
  void ScorePairs(const std::vector<int64_t>& users,
                  const std::vector<int64_t>& items,
                  std::vector<float>* out) override {
    out->resize(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      (*out)[i] = scores_[static_cast<size_t>(users[i])]
                         [static_cast<size_t>(items[i])];
    }
  }

 private:
  std::vector<std::vector<float>> scores_;
};

data::Dataset TinyDataset() {
  data::Dataset d;
  d.name = "tiny";
  d.num_users = 2;
  d.num_items = 4;
  d.num_entities = 4;
  d.num_relations = 1;
  d.train = {{0, 0}, {1, 1}};
  d.test = {{0, 1}, {1, 2}};
  return d;
}

TEST(ProtocolTest, OracleGetsPerfectTopK) {
  data::Dataset d = TinyDataset();
  // Scores make each user's test item the top-ranked candidate.
  OracleScorer oracle({{0.0f, 1.0f, 0.2f, 0.1f},   // user 0 -> item 1
                       {0.0f, 0.0f, 1.0f, 0.1f}});  // user 1 -> item 2
  TopKOptions options;
  options.ks = {1, 2};
  const TopKResult result = EvaluateTopK(
      &oracle, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_EQ(result.evaluated_users, 2);
  EXPECT_DOUBLE_EQ(result.recall.at(1), 1.0);
  EXPECT_DOUBLE_EQ(result.ndcg.at(1), 1.0);
}

TEST(ProtocolTest, MaskedItemsAreExcluded) {
  data::Dataset d = TinyDataset();
  // Train item 0 has the best score for user 0 but must be masked out.
  OracleScorer oracle({{9.0f, 1.0f, 0.2f, 0.1f},
                       {0.0f, 9.0f, 1.0f, 0.1f}});
  TopKOptions options;
  options.ks = {1};
  const TopKResult result = EvaluateTopK(
      &oracle, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_DOUBLE_EQ(result.recall.at(1), 1.0);
}

TEST(ProtocolTest, AntiOracleGetsZeroAtOne) {
  data::Dataset d = TinyDataset();
  OracleScorer anti({{0.0f, -1.0f, 0.5f, 0.6f},
                     {0.0f, 0.0f, -1.0f, 0.6f}});
  TopKOptions options;
  options.ks = {1};
  const TopKResult result = EvaluateTopK(
      &anti, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_DOUBLE_EQ(result.recall.at(1), 0.0);
}

TEST(ProtocolTest, MaxUsersSubsamples) {
  data::Dataset d = TinyDataset();
  OracleScorer oracle({{0.0f, 1.0f, 0.2f, 0.1f},
                       {0.0f, 0.0f, 1.0f, 0.1f}});
  TopKOptions options;
  options.ks = {1};
  options.max_users = 1;
  const TopKResult result = EvaluateTopK(
      &oracle, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_EQ(result.evaluated_users, 1);
}

TEST(ProtocolTest, CtrEvaluatorUsesScorer) {
  OracleScorer oracle({{5.0f, -5.0f}});
  std::vector<data::CtrExample> examples = {{0, 0, 1.0f}, {0, 1, 0.0f}};
  const CtrResult result = EvaluateCtr(&oracle, examples);
  EXPECT_DOUBLE_EQ(result.auc, 1.0);
  EXPECT_DOUBLE_EQ(result.f1, 1.0);
}

TEST(ProtocolTest, ReportsAllRankingMetrics) {
  data::Dataset d = TinyDataset();
  OracleScorer oracle({{0.0f, 1.0f, 0.2f, 0.1f},
                       {0.0f, 0.0f, 1.0f, 0.1f}});
  TopKOptions options;
  options.ks = {1, 2};
  const TopKResult result = EvaluateTopK(
      &oracle, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_DOUBLE_EQ(result.precision.at(1), 1.0);
  EXPECT_DOUBLE_EQ(result.hit_rate.at(1), 1.0);
  EXPECT_DOUBLE_EQ(result.map, 1.0);
  EXPECT_DOUBLE_EQ(result.mrr, 1.0);
  // Precision halves when K doubles with a single relevant item.
  EXPECT_DOUBLE_EQ(result.precision.at(2), 0.5);
}

TEST(ProtocolTest, TiesRankByItemIdLikeTheEngine) {
  // 17 candidates with one score: the engine's order (score descending,
  // then item ascending) puts the relevant item 0 first. An unstable sort
  // on score alone does not.
  data::Dataset d;
  d.name = "ties";
  d.num_users = 1;
  d.num_items = 17;
  d.num_entities = 17;
  d.num_relations = 1;
  d.test = {{0, 0}};
  OracleScorer flat({std::vector<float>(17, 0.5f)});
  TopKOptions options;
  options.ks = {1};
  const TopKResult result = EvaluateTopK(
      &flat, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_EQ(result.evaluated_users, 1);
  EXPECT_DOUBLE_EQ(result.recall.at(1), 1.0);
}

TEST(ProtocolTest, NanScoresRankAfterEveryNumber) {
  // A diverged model's NaN scores rank after every number, -inf included,
  // and among themselves by item id.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  data::Dataset d;
  d.name = "nan";
  d.num_users = 1;
  d.num_items = 5;
  d.num_entities = 5;
  d.num_relations = 1;
  d.test = {{0, 1}, {0, 2}};
  OracleScorer scorer({{nan, -inf, nan, 0.5f, nan}});
  TopKOptions options;
  options.ks = {1, 2, 3};
  const TopKResult result = EvaluateTopK(
      &scorer, d, d.test, d.BuildTrainPositives(), options);
  // Ranking: 3, 1, 0, 2, 4.
  EXPECT_DOUBLE_EQ(result.recall.at(1), 0.0);
  EXPECT_DOUBLE_EQ(result.recall.at(2), 0.5);
  EXPECT_DOUBLE_EQ(result.recall.at(3), 0.5);
  EXPECT_DOUBLE_EQ(result.mrr, 0.5);
}

TEST(RankingOrderTest, RanksBeforeIsAStrictTotalOrderOverDistinctItems) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::pair<float, int64_t>> entries;
  for (const float score : {nan, -nan, inf, -inf, 0.0f, -0.0f, 1.0f, -1.0f,
                            std::numeric_limits<float>::denorm_min()}) {
    for (const int64_t item : {0, 1, 2}) entries.emplace_back(score, item);
  }
  const auto before = [](const std::pair<float, int64_t>& a,
                         const std::pair<float, int64_t>& b) {
    return RanksBefore(a.first, a.second, b.first, b.second);
  };
  for (const auto& a : entries) {
    EXPECT_FALSE(before(a, a));
    for (const auto& b : entries) {
      if (before(a, b)) {
        EXPECT_FALSE(before(b, a));
      }
      // Entries of one item may tie (NaN and NaN, +0 and -0); entries of
      // two items never do.
      if (a.second != b.second) {
        EXPECT_NE(before(a, b), before(b, a));
      }
      const bool tie_ab = !before(a, b) && !before(b, a);
      for (const auto& c : entries) {
        if (before(a, b) && before(b, c)) {
          EXPECT_TRUE(before(a, c));
        }
        if (tie_ab && !before(b, c) && !before(c, b)) {
          EXPECT_TRUE(!before(a, c) && !before(c, a));
        }
      }
    }
  }
  // Numbers (even -inf) before NaN; equal scores and -0 against +0 by id.
  EXPECT_TRUE(RanksBefore(-inf, 5, nan, 0));
  EXPECT_FALSE(RanksBefore(nan, 0, -inf, 5));
  EXPECT_TRUE(RanksBefore(nan, 1, nan, 2));
  EXPECT_TRUE(RanksBefore(-0.0f, 1, 0.0f, 2));
  EXPECT_TRUE(RanksBefore(0.0f, 1, -0.0f, 2));
  EXPECT_TRUE(RanksBefore(2.0f, 9, 1.0f, 0));
}

TEST(ProtocolTest, UsersWithoutTargetPositivesAreSkipped) {
  data::Dataset d = TinyDataset();
  d.test = {{0, 1}};  // user 1 has nothing to find
  OracleScorer oracle({{0.0f, 1.0f, 0.2f, 0.1f},
                       {0.0f, 0.0f, 1.0f, 0.1f}});
  TopKOptions options;
  options.ks = {1};
  const TopKResult result = EvaluateTopK(
      &oracle, d, d.test, d.BuildTrainPositives(), options);
  EXPECT_EQ(result.evaluated_users, 1);
}

// --- aggregation / formatting ---

TEST(AggregatorTest, SummaryAndBestRow) {
  TrialAggregator agg;
  agg.Add("A", "recall", 0.2);
  agg.Add("A", "recall", 0.4);
  agg.Add("B", "recall", 0.5);
  agg.Add("CG-KGR", "recall", 0.6);
  EXPECT_NEAR(agg.Summary("A", "recall").mean, 0.3, 1e-12);
  EXPECT_EQ(agg.BestRowExcept("recall", "CG-KGR"), "B");
  EXPECT_EQ(agg.rows().size(), 3u);
  EXPECT_TRUE(agg.Samples("missing", "recall").empty());
}

TEST(AggregatorTest, FormatHelpers) {
  EXPECT_EQ(FormatMeanStd({0.2162, 0.0367}), "21.62 +/- 3.67");
}

}  // namespace
}  // namespace eval
}  // namespace cgkgr
