#ifndef CGKGR_SERVE_SNAPSHOT_H_
#define CGKGR_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "models/recommender.h"

namespace cgkgr {
namespace serve {

/// A frozen inference artifact: the trained model's final per-user score
/// vectors over the item catalog, plus the per-user train-split item lists
/// used for seen-item filtering at query time.
///
/// The scores are materialized offline through `eval::PairScorer`, so the
/// snapshot is exact for *any* RecommenderModel — including the non-bilinear
/// ones (CG-KGR's guided attention, CKAN, NFM) whose scoring function does
/// not factor into a user·item dot product. Serving then never touches the
/// model: `serve::Engine` answers Top-K from this matrix alone.
struct Snapshot {
  std::string model_name;
  std::string dataset_name;
  int64_t num_users = 0;
  int64_t num_items = 0;
  /// Row-major (num_users x num_items): scores[u * num_items + i] is the
  /// model's matching score y_hat(u, i).
  std::vector<float> scores;
  /// Per-user sorted train-split item ids (candidates the engine never
  /// recommends).
  std::vector<std::vector<int64_t>> seen;

  /// The user's score vector (length num_items).
  const float* UserScores(int64_t user) const {
    return scores.data() + user * num_items;
  }
};

/// InvalidArgument, prefixed with `caller`, when the dimensions are
/// negative or the score matrix or seen lists disagree with them: the shape
/// every reader of a Snapshot indexes by.
Status ValidateSnapshot(const Snapshot& snapshot, const char* caller);

/// InvalidArgument, prefixed with `origin`, unless every id in `seen` is in
/// [0, num_items) and the list is non-decreasing. The engine's seen filter
/// walks a list as ascending runs; repeated ids are legal, because the
/// train split keeps repeated (user, item) pairs. LoadSnapshot and
/// LoadDelta check every list they read.
Status ValidateSeenList(const std::vector<int64_t>& seen, int64_t num_items,
                        const std::string& origin);

/// Batch-scores every (user, item) pair of the dataset through the trained
/// model and packages the result with train-split seen lists. Each user's
/// row goes through eval::RowScorer, the loop eval::EvaluateTopK ranks
/// from, so the ScorePairs calls are issued one at a time from the calling
/// thread (PairScorer need not be thread-safe); a model may spread each
/// call over its own lanes, as CG-KGR does with the lanes it was trained
/// on.
Snapshot BuildSnapshot(models::RecommenderModel* model,
                       const data::Dataset& dataset);

/// Writes `snapshot` to `path` as a framed, CRC-validated binary checkpoint
/// (the ckpt format — see docs/checkpointing.md) with an atomic publish.
/// Scores are stored as raw IEEE floats, so the round-trip is bit-exact.
Status SaveSnapshot(const Snapshot& snapshot, const std::string& path);

/// Loads a snapshot previously written by SaveSnapshot. Every corruption
/// mode — flipped bits (CRC), truncated or oversized payloads, dimension /
/// score-count mismatches, out-of-range or out-of-order seen items —
/// surfaces as a descriptive non-OK Status, never a crash or a misaligned
/// matrix.
Result<Snapshot> LoadSnapshot(const std::string& path);

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_SNAPSHOT_H_
