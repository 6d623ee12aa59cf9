#ifndef CGKGR_EVAL_PROTOCOL_H_
#define CGKGR_EVAL_PROTOCOL_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace cgkgr {
namespace eval {

/// Minimal scoring interface the evaluators drive. RecommenderModel
/// implements it; evaluation calls are inference-only (no gradients).
class PairScorer {
 public:
  virtual ~PairScorer() = default;

  /// Computes matching scores y_hat(u, i) for aligned user/item id vectors.
  /// `out` is resized to users.size().
  virtual void ScorePairs(const std::vector<int64_t>& users,
                          const std::vector<int64_t>& items,
                          std::vector<float>* out) = 0;
};

/// Pairs per ScorePairs call in EvaluateTopK, EvaluateCtr and
/// serve::BuildSnapshot. One value everywhere, so evaluation and serving
/// hand a model the same calls.
inline constexpr int64_t kPairsPerCall = 4096;

/// Scores one user's items at a time through a PairScorer, on the calling
/// thread, in ScorePairs calls of at most kPairsPerCall pairs: the per-user
/// loop of EvaluateTopK and serve::BuildSnapshot. Its call buffers live
/// across rows.
class RowScorer {
 public:
  explicit RowScorer(PairScorer* scorer);

  /// Writes the score of (user, items[j]) to out[j].
  void Score(int64_t user, const std::vector<int64_t>& items, float* out);

 private:
  PairScorer* scorer_;
  std::vector<int64_t> users_;
  std::vector<int64_t> items_;
  std::vector<float> scores_;
};

/// The ranking order of EvaluateTopK and serve::Engine: score descending,
/// NaN after every number, ties (and NaN against NaN) by item id
/// ascending; +0 and -0 tie. Over entries with distinct items it is a
/// strict total order, so every sort or selection under it gives the same
/// list, also for rows a diverged model filled with NaN.
inline bool RanksBefore(float score_a, int64_t item_a, float score_b,
                        int64_t item_b) {
  if (score_a > score_b) return true;
  if (score_a < score_b) return false;
  const bool nan_a = std::isnan(score_a);
  if (nan_a != std::isnan(score_b)) return !nan_a;
  return item_a < item_b;
}

/// Options for full-ranking Top-K evaluation (paper Sec. IV-C).
struct TopKOptions {
  /// Cutoffs to report; the paper sweeps {1, 5, 10, 20, 50, 100}.
  std::vector<int64_t> ks = {20};
  /// Evaluate at most this many users (sampled deterministically); 0 = all.
  int64_t max_users = 0;
  /// Seed for the user subsample.
  uint64_t user_sample_seed = 7;
};

/// Mean ranking metrics over evaluated users. Recall/NDCG are the paper's
/// protocols; precision/hit-rate per K plus MAP/MRR are provided for
/// downstream use.
struct TopKResult {
  std::map<int64_t, double> recall;
  std::map<int64_t, double> ndcg;
  std::map<int64_t, double> precision;
  std::map<int64_t, double> hit_rate;
  double map = 0.0;
  double mrr = 0.0;
  int64_t evaluated_users = 0;
};

/// Full-ranking Top-K evaluation: for every user with at least one positive
/// in `target_split`, ranks all items not interacted with in the earlier
/// splits (`mask` = train [+ eval when testing]) and averages Recall/NDCG.
/// Ranking is RanksBefore, serve::Engine's order.
TopKResult EvaluateTopK(PairScorer* scorer, const data::Dataset& dataset,
                        const std::vector<graph::Interaction>& target_split,
                        const std::vector<std::vector<int64_t>>& mask,
                        const TopKOptions& options);

/// AUC/F1 of CTR prediction over labeled examples (paper Sec. IV-C).
struct CtrResult {
  double auc = 0.5;
  double f1 = 0.0;
};

/// Scores every example, kPairsPerCall pairs per call, and computes AUC
/// and F1.
CtrResult EvaluateCtr(PairScorer* scorer,
                      const std::vector<data::CtrExample>& examples);

}  // namespace eval
}  // namespace cgkgr

#endif  // CGKGR_EVAL_PROTOCOL_H_
