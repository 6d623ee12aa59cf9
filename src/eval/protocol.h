#ifndef CGKGR_EVAL_PROTOCOL_H_
#define CGKGR_EVAL_PROTOCOL_H_

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

/// Options for full-ranking Top-K evaluation (paper Sec. IV-C).
struct TopKOptions {
  /// Cutoffs to report; the paper sweeps {1, 5, 10, 20, 50, 100}.
  std::vector<int64_t> ks = {20};
  /// Evaluate at most this many users (sampled deterministically); 0 = all.
  int64_t max_users = 0;
  /// Pairs scored per ScorePairs call.
  int64_t chunk_size = 4096;
  /// Seed for the user subsample.
  uint64_t user_sample_seed = 7;
  /// Concurrent lanes for the per-user candidate masking, ranking sort, and
  /// metric computation (common/thread_pool). All ScorePairs calls stay on
  /// the calling thread in the exact order of the sequential path — the
  /// PairScorer contract does not require thread safety — so results are
  /// bit-identical for every value of this knob; 1 (the default) runs the
  /// historical fully sequential code path. Values > 1 buffer each
  /// evaluated user's candidate scores (O(evaluated_users x num_items)
  /// floats) until the parallel ranking phase.
  int64_t num_threads = 1;
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
TopKResult EvaluateTopK(PairScorer* scorer, const data::Dataset& dataset,
                        const std::vector<graph::Interaction>& target_split,
                        const std::vector<std::vector<int64_t>>& mask,
                        const TopKOptions& options);

/// AUC/F1 of CTR prediction over labeled examples (paper Sec. IV-C).
struct CtrResult {
  double auc = 0.5;
  double f1 = 0.0;
};

/// Scores every example in chunks and computes AUC and F1.
CtrResult EvaluateCtr(PairScorer* scorer,
                      const std::vector<data::CtrExample>& examples,
                      int64_t chunk_size = 4096);

}  // namespace eval
}  // namespace cgkgr

#endif  // CGKGR_EVAL_PROTOCOL_H_
