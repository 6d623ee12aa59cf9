#include "eval/protocol.h"

#include <algorithm>

#include "common/macros.h"
#include "eval/metrics.h"

namespace cgkgr {
namespace eval {

RowScorer::RowScorer(PairScorer* scorer) : scorer_(scorer) {
  CGKGR_CHECK(scorer_ != nullptr);
}

void RowScorer::Score(int64_t user, const std::vector<int64_t>& items,
                      float* out) {
  for (size_t begin = 0; begin < items.size(); begin += kPairsPerCall) {
    const size_t end =
        std::min(items.size(), begin + static_cast<size_t>(kPairsPerCall));
    users_.assign(end - begin, user);
    items_.assign(items.begin() + begin, items.begin() + end);
    scorer_->ScorePairs(users_, items_, &scores_);
    CGKGR_CHECK(scores_.size() == end - begin);
    std::copy(scores_.begin(), scores_.end(), out + begin);
  }
}

TopKResult EvaluateTopK(PairScorer* scorer, const data::Dataset& dataset,
                        const std::vector<graph::Interaction>& target_split,
                        const std::vector<std::vector<int64_t>>& mask,
                        const TopKOptions& options) {
  RowScorer row_scorer(scorer);
  TopKResult result;
  const auto positives =
      data::Dataset::BuildPositives(target_split, dataset.num_users);

  // Users that have something to find in the target split.
  std::vector<int64_t> users;
  for (int64_t u = 0; u < dataset.num_users; ++u) {
    if (!positives[static_cast<size_t>(u)].empty()) users.push_back(u);
  }
  if (options.max_users > 0 &&
      static_cast<int64_t>(users.size()) > options.max_users) {
    Rng rng(options.user_sample_seed);
    rng.Shuffle(&users);
    users.resize(static_cast<size_t>(options.max_users));
  }

  std::map<int64_t, double> recall_sums;
  std::map<int64_t, double> ndcg_sums;
  std::map<int64_t, double> precision_sums;
  std::map<int64_t, double> hit_sums;
  double map_sum = 0.0;
  double mrr_sum = 0.0;
  for (int64_t k : options.ks) {
    recall_sums[k] = 0.0;
    ndcg_sums[k] = 0.0;
    precision_sums[k] = 0.0;
    hit_sums[k] = 0.0;
  }

  std::vector<float> all_scores(static_cast<size_t>(dataset.num_items));
  std::vector<int64_t> candidates;
  std::vector<float> candidate_scores;
  for (int64_t user : users) {
    // Candidate items: everything not already consumed in the mask splits.
    const auto& masked = mask[static_cast<size_t>(user)];
    candidates.clear();
    for (int64_t i = 0; i < dataset.num_items; ++i) {
      if (!std::binary_search(masked.begin(), masked.end(), i)) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) continue;
    candidate_scores.resize(candidates.size());
    row_scorer.Score(user, candidates, candidate_scores.data());
    for (size_t j = 0; j < candidates.size(); ++j) {
      all_scores[static_cast<size_t>(candidates[j])] = candidate_scores[j];
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](int64_t a, int64_t b) {
                return RanksBefore(all_scores[static_cast<size_t>(a)], a,
                                   all_scores[static_cast<size_t>(b)], b);
              });
    const auto& relevant = positives[static_cast<size_t>(user)];
    for (int64_t k : options.ks) {
      recall_sums[k] += RecallAtK(candidates, relevant, k);
      ndcg_sums[k] += NdcgAtK(candidates, relevant, k);
      precision_sums[k] += PrecisionAtK(candidates, relevant, k);
      hit_sums[k] += HitRateAtK(candidates, relevant, k);
    }
    map_sum += AveragePrecision(candidates, relevant);
    mrr_sum += ReciprocalRank(candidates, relevant);
    ++result.evaluated_users;
  }

  const double denom =
      result.evaluated_users > 0
          ? static_cast<double>(result.evaluated_users)
          : 1.0;
  for (int64_t k : options.ks) {
    result.recall[k] = recall_sums[k] / denom;
    result.ndcg[k] = ndcg_sums[k] / denom;
    result.precision[k] = precision_sums[k] / denom;
    result.hit_rate[k] = hit_sums[k] / denom;
  }
  result.map = map_sum / denom;
  result.mrr = mrr_sum / denom;
  return result;
}

CtrResult EvaluateCtr(PairScorer* scorer,
                      const std::vector<data::CtrExample>& examples) {
  CGKGR_CHECK(scorer != nullptr);
  std::vector<float> scores;
  std::vector<float> labels;
  scores.reserve(examples.size());
  labels.reserve(examples.size());
  std::vector<int64_t> users;
  std::vector<int64_t> items;
  std::vector<float> chunk_scores;
  for (size_t begin = 0; begin < examples.size(); begin += kPairsPerCall) {
    const size_t end = std::min(examples.size(),
                                begin + static_cast<size_t>(kPairsPerCall));
    users.clear();
    items.clear();
    for (size_t i = begin; i < end; ++i) {
      users.push_back(examples[i].user);
      items.push_back(examples[i].item);
    }
    scorer->ScorePairs(users, items, &chunk_scores);
    CGKGR_CHECK(chunk_scores.size() == end - begin);
    for (size_t i = begin; i < end; ++i) {
      scores.push_back(chunk_scores[i - begin]);
      labels.push_back(examples[i].label);
    }
  }
  CtrResult result;
  result.auc = Auc(scores, labels);
  result.f1 = F1Score(scores, labels);
  return result;
}

}  // namespace eval
}  // namespace cgkgr
