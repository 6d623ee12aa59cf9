#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "ckpt/io.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "eval/protocol.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "serve/delta.h"
#include "serve/request.h"
#include "serve/stats.h"

namespace cgkgr {
namespace serve {

namespace {

/// One label set per Engine instance: {engine="0"}, {engine="1"}, ... keeps
/// concurrent engines' counts separable in the shared registry.
obs::Labels NextEngineLabels() {
  static std::atomic<int64_t> next_id{0};
  return {{"engine", StrFormat("%lld", static_cast<long long>(next_id.fetch_add(
                                  1, std::memory_order_relaxed)))}};
}

/// eval::RanksBefore on ScoredItem.
inline bool Ranks(const ScoredItem& a, const ScoredItem& b) {
  return eval::RanksBefore(a.score, a.item, b.score, b.item);
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Create(
    std::shared_ptr<const Snapshot> snapshot, const EngineOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Engine::Create: null snapshot");
  }
  CGKGR_RETURN_NOT_OK(ValidateSnapshot(*snapshot, "Engine::Create"));
  if (options.num_threads < 1) {
    return Status::InvalidArgument("Engine::Create: num_threads must be >= 1");
  }
  if (options.cache_capacity < 0) {
    return Status::InvalidArgument(
        "Engine::Create: cache_capacity must be >= 0");
  }
  return std::make_unique<Engine>(std::move(snapshot), options);
}

Engine::Engine(std::shared_ptr<const Snapshot> snapshot, EngineOptions options)
    : options_(options),
      pool_(options.num_threads),
      snapshot_(std::move(snapshot)) {
  CGKGR_CHECK(snapshot_ != nullptr);
  digest_ = DigestSnapshot(*snapshot_);
  row_epochs_.assign(static_cast<size_t>(snapshot_->num_users), 0);
  const obs::Labels labels = NextEngineLabels();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  requests_ = registry.GetCounter("serve_requests_total", labels);
  computes_ = registry.GetCounter("serve_computes_total", labels);
  batch_coalesced_ =
      registry.GetCounter("serve_batch_coalesced_total", labels);
  cache_hits_ = registry.GetCounter("serve_cache_hits_total", labels);
  cache_misses_ = registry.GetCounter("serve_cache_misses_total", labels);
  cache_evictions_ =
      registry.GetCounter("serve_cache_evictions_total", labels);
  snapshot_reloads_ =
      registry.GetCounter("serve_snapshot_reloads_total", labels);
  snapshot_delta_reloads_ =
      registry.GetCounter("serve_snapshot_delta_reloads_total", labels);
  snapshot_reload_skipped_ =
      registry.GetCounter("serve_snapshot_reload_skipped_total", labels);
  cache_size_ = registry.GetGauge("serve_cache_size", labels);
  latency_ = registry.GetHistogram("serve_request_micros", labels);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<
        ShardedLruCache<CacheKey, std::vector<ScoredItem>, CacheKeyHash>>(
        options_.cache_capacity, kCacheShards, cache_evictions_, cache_size_);
  }
}

std::vector<ScoredItem> Engine::Compute(const Snapshot& snapshot, int64_t user,
                                        int64_t k) {
  const float* row = snapshot.UserScores(user);
  const size_t keep = static_cast<size_t>(std::min(k, snapshot.num_items));
  std::vector<ScoredItem> top;
  top.reserve(keep);
  // `top` takes the first `keep` candidates, then becomes a heap with the
  // worst entry on top. Ids ascend, so a later candidate that ties the
  // worst ranks after it and never enters, and neither does a NaN. `floor`
  // is NaN while `top` fills and the worst score after; `score <= floor` is
  // false when either side is NaN, so every candidate that could enter
  // passes the one compare, and Ranks decides.
  float floor = std::numeric_limits<float>::quiet_NaN();
  const auto scan = [&](int64_t begin, int64_t end) {
    for (int64_t item = begin; item < end; ++item) {
      const ScoredItem candidate{item, row[item]};
      if (candidate.score <= floor) continue;
      if (top.size() < keep) {
        top.push_back(candidate);
        if (top.size() < keep) continue;
        std::make_heap(top.begin(), top.end(), Ranks);
      } else if (Ranks(candidate, top.front())) {
        std::pop_heap(top.begin(), top.end(), Ranks);
        top.back() = candidate;
        std::push_heap(top.begin(), top.end(), Ranks);
      } else {
        continue;
      }
      floor = top.front().score;
    }
  };
  {
    obs::ScopedSpan rank_span("serve/rank");
    // The runs between consecutive seen ids, clamped so ids only ascend.
    int64_t run_begin = 0;
    for (const int64_t seen : snapshot.seen[static_cast<size_t>(user)]) {
      const int64_t run_end = std::min(seen, snapshot.num_items);
      scan(run_begin, run_end);
      run_begin = std::max(run_begin, run_end + 1);
    }
    scan(run_begin, snapshot.num_items);
  }
  obs::ScopedSpan merge_span("serve/merge");
  std::sort(top.begin(), top.end(), Ranks);
  return top;
}

Response Engine::ServeOne(const Snapshot& snapshot, uint64_t generation,
                          uint64_t epoch, const Request& request) {
  Response response;
  response.generation = generation;
  if (request.user < 0 || request.user >= snapshot.num_users ||
      request.k <= 0) {
    response.status = ResponseStatus::kInvalidArgument;
    return response;
  }
  obs::ScopedSpan request_span("serve/request");
  WallTimer timer;
  requests_->Increment();
  const CacheKey key{epoch, request.user, request.k};
  if (cache_ != nullptr && cache_->Get(key, &response.items)) {
    cache_hits_->Increment();
    latency_->Record(timer.ElapsedMillis() * 1e3);
    return response;
  }
  if (cache_ != nullptr) {
    cache_misses_->Increment();
  }
  computes_->Increment();
  response.items = Compute(snapshot, request.user, request.k);
  if (cache_ != nullptr) cache_->Put(key, response.items);
  latency_->Record(timer.ElapsedMillis() * 1e3);
  return response;
}

Response Engine::Handle(const Request& request) {
  std::shared_ptr<const Snapshot> snapshot;
  uint64_t generation = 0;
  uint64_t epoch = 0;
  {
    ReaderMutexLock lock(&snapshot_mu_);
    snapshot = snapshot_;
    generation = generation_;
    if (request.user >= 0 &&
        request.user < static_cast<int64_t>(row_epochs_.size())) {
      epoch = row_epochs_[static_cast<size_t>(request.user)];
    }
  }
  return ServeOne(*snapshot, generation, epoch, request);
}

std::vector<Response> Engine::HandleBatch(
    const std::vector<Request>& requests) {
  std::shared_ptr<const Snapshot> snapshot;
  uint64_t generation = 0;
  std::vector<uint64_t> epochs(requests.size(), 0);
  {
    ReaderMutexLock lock(&snapshot_mu_);
    snapshot = snapshot_;
    generation = generation_;
    for (size_t i = 0; i < requests.size(); ++i) {
      const int64_t user = requests[i].user;
      if (user >= 0 && user < static_cast<int64_t>(row_epochs_.size())) {
        epochs[i] = row_epochs_[static_cast<size_t>(user)];
      }
    }
  }
  // Coalesce duplicates: a hot user repeated in one batch is computed once
  // and fanned back out. The ordered map keeps the distinct set (and thus
  // the parallel schedule) deterministic.
  std::map<std::pair<int64_t, int64_t>, size_t> first_of;
  std::vector<size_t> primaries;
  std::vector<size_t> dup_of(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto [it, inserted] =
        first_of.try_emplace({requests[i].user, requests[i].k}, i);
    dup_of[i] = it->second;
    if (inserted) primaries.push_back(i);
  }
  std::vector<Response> responses(requests.size());
  // Whole requests spread across lanes; each computes on its lane.
  pool_.ParallelForEach(
      0, static_cast<int64_t>(primaries.size()), /*grain=*/1,
      [&](int64_t p) {
        const size_t i = primaries[static_cast<size_t>(p)];
        responses[i] = ServeOne(*snapshot, generation, epochs[i],
                                requests[i]);
      });
  // A duplicate counts as served traffic only when its primary was served:
  // a refused request counts nowhere, however often it repeats.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (dup_of[i] == i) continue;
    responses[i] = responses[dup_of[i]];
    if (!responses[i].ok()) continue;
    requests_->Increment();
    batch_coalesced_->Increment();
  }
  return responses;
}

void Engine::InstallSnapshot(std::shared_ptr<const Snapshot> snapshot,
                             std::string file) {
  CGKGR_CHECK(snapshot != nullptr);
  SnapshotDigest digest = DigestSnapshot(*snapshot);
  {
    WriterMutexLock lock(&snapshot_mu_);
    ++generation_;
    row_epochs_.assign(static_cast<size_t>(snapshot->num_users), generation_);
    snapshot_ = std::move(snapshot);
    digest_ = std::move(digest);
    loaded_file_ = std::move(file);
  }
  // Explicit invalidation; the epoch bump above already guarantees
  // in-flight queries against the old snapshot cannot serve future hits.
  if (cache_ != nullptr) cache_->Clear();
  snapshot_reloads_->Increment();
  // Snapshot install is the engine's phase boundary: refresh the process_*
  // gauges so reload-time RSS/CPU land next to the serving counters.
  obs::SampleProcessStats();
}

void Engine::ReloadSnapshot(std::shared_ptr<const Snapshot> snapshot) {
  InstallSnapshot(std::move(snapshot), "");
}

Status Engine::ApplyDeltaInstall(const SnapshotDelta& delta,
                                 std::string file) {
  // Patch optimistically against the current snapshot outside the writer
  // lock, then swap only if no other reload raced in between. The digest
  // carried beside the snapshot makes both fingerprint checks
  // O(users + changed rows), so ApplyDelta's matrix copy is the only
  // O(users x items) step of a delta reload.
  std::shared_ptr<const Snapshot> base;
  SnapshotDigest base_digest;
  {
    ReaderMutexLock lock(&snapshot_mu_);
    base = snapshot_;
    base_digest = digest_;
  }
  Result<PatchedSnapshot> applied = ApplyDelta(*base, base_digest, delta);
  CGKGR_RETURN_NOT_OK(applied.status());
  PatchedSnapshot patched = std::move(applied).value();
  auto next = std::make_shared<const Snapshot>(std::move(patched.snapshot));
  {
    WriterMutexLock lock(&snapshot_mu_);
    if (snapshot_ != base) {
      return Status::Internal(
          "ApplyDeltaSnapshot: a concurrent reload replaced the base "
          "snapshot; re-resolve and retry");
    }
    ++generation_;
    row_epochs_.resize(static_cast<size_t>(next->num_users), generation_);
    for (const DeltaRow& row : delta.rows) {
      row_epochs_[static_cast<size_t>(row.user)] = generation_;
    }
    snapshot_ = std::move(next);
    digest_ = std::move(patched.digest);
    loaded_file_ = std::move(file);
  }
  // No cache clear: entries for untouched users stay valid (their epoch is
  // unchanged); entries for patched users are unreachable under the bumped
  // epoch and age out of the LRU.
  snapshot_delta_reloads_->Increment();
  obs::SampleProcessStats();
  return Status::OK();
}

Status Engine::ApplyDeltaSnapshot(const SnapshotDelta& delta) {
  return ApplyDeltaInstall(delta, "");
}

Status Engine::ReloadFromDir(const std::string& dir) {
  Result<std::vector<std::string>> listed =
      ckpt::ListFilesWithSuffixes(dir, {".snap", ".delta"});
  if (!listed.ok()) return listed.status();
  const std::vector<std::string>& names = listed.value();
  std::string serving;
  {
    ReaderMutexLock lock(&snapshot_mu_);
    serving = loaded_file_;
  }

  // Anchor the walk: everything at or before the serving artifact is
  // already reflected in the engine's state.
  size_t begin = 0;
  bool have_base = false;
  if (!serving.empty()) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == serving) {
        have_base = true;
        begin = i + 1;
        break;
      }
    }
  }

  // Loads and installs one full snapshot. A corrupt (half-written,
  // bit-flipped, truncated) snapshot must never take the engine down: it is
  // logged, counted and reported as not installed.
  const auto install = [&](const std::string& name) {
    Result<Snapshot> snapshot = LoadSnapshot(dir + "/" + name);
    if (!snapshot.ok()) {
      CGKGR_LOG(Warning) << "ReloadFromDir: skipping invalid snapshot "
                         << dir << "/" << name << ": "
                         << snapshot.status().ToString();
      snapshot_reload_skipped_->Increment();
      return false;
    }
    InstallSnapshot(
        std::make_shared<const Snapshot>(std::move(snapshot).value()), name);
    return true;
  };

  // No anchor: install the newest valid full snapshot first (deltas cannot
  // bootstrap an arbitrary base), then chain only the deltas after it —
  // every later .snap was already tried and failed in this back-walk.
  bool deltas_only = false;
  if (!have_base) {
    for (size_t i = names.size(); i-- > 0;) {
      if (!EndsWith(names[i], ".snap") || !install(names[i])) continue;
      have_base = true;
      begin = i + 1;
      deltas_only = true;
      break;
    }
    if (!have_base) {
      return Status::NotFound("no valid *.snap snapshot in " + dir);
    }
  }

  // Forward-apply everything published after the anchor, in name order.
  for (size_t i = begin; i < names.size(); ++i) {
    if (EndsWith(names[i], ".snap")) {
      if (!deltas_only) install(names[i]);
      continue;
    }
    Result<SnapshotDelta> delta = LoadDelta(dir + "/" + names[i]);
    Status applied = delta.ok() ? ApplyDeltaInstall(delta.value(), names[i])
                                : delta.status();
    if (!applied.ok()) {
      // Corrupt file or a delta diffed against bits we are not serving
      // (e.g. its base full snapshot was skipped as corrupt): skip it, a
      // later full snapshot will resynchronize.
      CGKGR_LOG(Warning) << "ReloadFromDir: skipping inapplicable delta "
                         << dir << "/" << names[i] << ": "
                         << applied.ToString();
      snapshot_reload_skipped_->Increment();
    }
  }
  return Status::OK();
}

std::shared_ptr<const Snapshot> Engine::snapshot() const {
  ReaderMutexLock lock(&snapshot_mu_);
  return snapshot_;
}

uint64_t Engine::generation() const {
  ReaderMutexLock lock(&snapshot_mu_);
  return generation_;
}

EngineStats Engine::stats() const {
  EngineStats stats;
  stats.requests = requests_->value();
  stats.computes = computes_->value();
  stats.batch_coalesced = batch_coalesced_->value();
  stats.cache_hits = cache_hits_->value();
  stats.cache_misses = cache_misses_->value();
  stats.cache_evictions = cache_evictions_->value();
  stats.snapshot_reloads = snapshot_reloads_->value();
  stats.snapshot_delta_reloads = snapshot_delta_reloads_->value();
  const obs::HistogramSnapshot latency = latency_->Snapshot();
  stats.p50_micros = latency.Percentile(0.50);
  stats.p95_micros = latency.Percentile(0.95);
  stats.p99_micros = latency.Percentile(0.99);
  return stats;
}

void Engine::ResetStats() {
  requests_->Reset();
  computes_->Reset();
  batch_coalesced_->Reset();
  cache_hits_->Reset();
  cache_misses_->Reset();
  latency_->Reset();
}

}  // namespace serve
}  // namespace cgkgr
