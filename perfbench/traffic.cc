#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "serve/delta.h"

namespace perfbench {

using cgkgr::Status;
using cgkgr::StrFormat;
using cgkgr::WallTimer;
namespace serve = cgkgr::serve;

namespace {

using Clock = std::chrono::steady_clock;

/// Items per request: the cutoff of the quality metrics.
constexpr int64_t kTopK = 20;
/// Requests the closed-loop client keeps in flight: two full frontend
/// batches, so the dispatcher never waits for the client.
constexpr int64_t kInFlight = 128;
/// Closed-loop throughput window.
constexpr double kQpsWindowSeconds = 0.5;
/// Share of users whose score row (and seen list) each delta rewrites.
constexpr double kDeltaUserShare = 0.05;
/// Open-loop latency limit.
constexpr double kOpenSloMicros = 2000.0;
/// Every this many OK responses, one is checked against the reference.
constexpr int64_t kCheckEvery = 16;

double MicrosSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

bool Ready(const std::future<serve::Response>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// Reference top-k: rank unseen items by (score desc, item asc).
std::vector<serve::ScoredItem> ReferenceTopK(const serve::Snapshot& snapshot,
                                             int64_t user, int64_t k) {
  const float* row = snapshot.UserScores(user);
  const std::vector<int64_t>& seen =
      snapshot.seen[static_cast<size_t>(user)];
  std::vector<serve::ScoredItem> candidates;
  candidates.reserve(static_cast<size_t>(snapshot.num_items));
  size_t next_seen = 0;
  for (int64_t item = 0; item < snapshot.num_items; ++item) {
    while (next_seen < seen.size() && seen[next_seen] < item) ++next_seen;
    if (next_seen < seen.size() && seen[next_seen] == item) continue;
    candidates.push_back({item, row[item]});
  }
  const size_t keep = std::min(candidates.size(), static_cast<size_t>(k));
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(),
                    [](const serve::ScoredItem& a, const serve::ScoredItem& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.item < b.item;
                    });
  candidates.resize(keep);
  return candidates;
}

}  // namespace

void Tally::Op(bool ok, std::string_view what) {
  ++attempted;
  if (!ok) {
    ++failed;
    Note("failed: " + std::string(what));
  }
}

void Tally::Check(bool ok, std::string_view what) {
  if (!ok) {
    ++wrong;
    Note("wrong: " + std::string(what));
  }
}

void Tally::Note(std::string_view what) {
  constexpr size_t kMaxNotes = 8;
  if (notes.size() < kMaxNotes) notes.emplace_back(what);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const std::string& note : other.notes) Note(note);
}

ServeSession::ServeSession(const TrafficOptions& options,
                           std::shared_ptr<const serve::Snapshot> base,
                           std::string dir, int64_t engine_lanes,
                           uint64_t seed)
    : options_(options),
      base_(std::move(base)),
      dir_(std::move(dir)),
      engine_lanes_(engine_lanes),
      rng_(seed ^ 0x5E5E5E5EULL),
      delta_rng_(seed ^ 0xDE17A5ULL),
      current_(*base_) {
  cgkgr::Rng hot_rng(seed ^ 0x407ULL);
  hot_ = hot_rng.SampleWithoutReplacement(
      base_->num_users, std::min(options_.hot_users, base_->num_users));
}

ServeSession::~ServeSession() {
  frontend_.reset();  // drains in-flight requests before the engines go
  router_.reset();
}

Status ServeSession::Prepare(double* prep_seconds) {
  WallTimer timer;
  {
    cgkgr::obs::ScopedSpan span("bench/serve.prep");
    router_ = std::make_unique<serve::Router>();
    serve::EngineOptions engine_options;
    engine_options.num_threads = engine_lanes_;
    engine_options.cache_capacity = options_.cache_capacity;
    CGKGR_RETURN_NOT_OK(router_->AddTenant("main", base_, engine_options));
    engine_ = router_->GetEngine("main");
    CGKGR_RETURN_NOT_OK(engine_->ReloadFromDir(dir_));
    anchor_generation_ = engine_->generation();
    published_generation_ = anchor_generation_;
    cgkgr::Result<std::unique_ptr<serve::Frontend>> frontend =
        serve::Frontend::Create(router_.get(), serve::FrontendOptions());
    CGKGR_RETURN_NOT_OK(frontend.status());
    frontend_ = std::move(frontend).value();
  }
  *prep_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status ServeSession::WarmUp(double* warmup_seconds) {
  WallTimer timer;
  {
    cgkgr::obs::ScopedSpan span("bench/serve.warmup");
    uint64_t last_generation = 0;
    std::vector<serve::Request> requests;
    for (const int64_t user : hot_) {
      serve::Request request;
      request.user = user;
      request.k = kTopK;
      requests.push_back(request);
    }
    for (int64_t i = 0; i < options_.cache_capacity; ++i) {
      requests.push_back(NextRequest());
    }
    for (const serve::Request& request : requests) {
      Observe(frontend_->Submit(request).get(), request.user,
              &last_generation);
    }
  }
  *warmup_seconds = timer.ElapsedSeconds();
  return tally_.failed == 0 ? Status::OK()
                            : Status::Internal("warm-up requests failed");
}

serve::Request ServeSession::NextRequest() {
  serve::Request request;
  request.k = kTopK;
  if (!hot_.empty() && rng_.Bernoulli(options_.hot_share)) {
    request.user = hot_[rng_.UniformInt(hot_.size())];
  } else {
    request.user = static_cast<int64_t>(
        rng_.UniformInt(static_cast<uint64_t>(base_->num_users)));
  }
  return request;
}

PhaseCounters ServeSession::CountersNow() const {
  const serve::EngineStats engine = engine_->stats();
  const serve::FrontendStats frontend = frontend_->stats();
  PhaseCounters counters;
  counters.requests = engine.requests;
  counters.computes = engine.computes;
  counters.coalesced = engine.batch_coalesced;
  counters.cache_hits = engine.cache_hits;
  counters.cache_lookups = engine.cache_hits + engine.cache_misses;
  counters.batches = frontend.batches;
  counters.completed = frontend.completed;
  counters.queue_peak = frontend.queue_peak;
  return counters;
}

PhaseCounters ServeSession::Since(const PhaseCounters& before,
                                  const PhaseCounters& after) {
  PhaseCounters delta;
  delta.requests = after.requests - before.requests;
  delta.computes = after.computes - before.computes;
  delta.coalesced = after.coalesced - before.coalesced;
  delta.cache_hits = after.cache_hits - before.cache_hits;
  delta.cache_lookups = after.cache_lookups - before.cache_lookups;
  delta.batches = after.batches - before.batches;
  delta.completed = after.completed - before.completed;
  delta.queue_peak = after.queue_peak;  // a running maximum
  return delta;
}

void ServeSession::Observe(const serve::Response& response, int64_t user,
                           uint64_t* last_generation) {
  if (!response.ok()) {
    tally_.Op(false, StrFormat("request: %s",
                               serve::ResponseStatusName(response.status)));
    return;
  }
  tally_.Op(true, "request");
  tally_.Check(response.generation >= *last_generation,
               "generation went backwards for a client");
  *last_generation = std::max(*last_generation, response.generation);
  if (ok_seen_++ % kCheckEvery == 0) {
    samples_.push_back({response.generation, user, response.items});
  }
}

SyncResult ServeSession::RunSync(double seconds) {
  SyncResult result;
  uint64_t last_generation = 0;
  WallTimer phase;
  while (phase.ElapsedSeconds() < seconds) {
    const serve::Request request = NextRequest();
    const Clock::time_point start = Clock::now();
    std::future<serve::Response> future;
    {
      cgkgr::obs::ScopedSpan span("bench/serve.submit");
      future = frontend_->Submit(request);
    }
    while (!Ready(future)) {
    }
    const double latency_us = MicrosSince(start);
    const serve::Response response = future.get();
    if (response.ok()) result.latency_us.push_back(latency_us);
    Observe(response, request.user, &last_generation);
  }
  return result;
}

bool ServeSession::Publish(Clock::time_point origin,
                           ClosedLoopResult* result, PublishLog* log,
                           Tally* tally) {
  const int64_t num_users = current_.num_users;
  const int64_t num_items = current_.num_items;
  const int64_t rows = std::clamp<int64_t>(
      std::llround(kDeltaUserShare * static_cast<double>(num_users)), 1,
      num_users);

  // The retrained model this delta stands for: new scores and one more
  // seen item for a fixed share of users.
  serve::Snapshot target = current_;
  Change change;
  change.generation = published_generation_ + 1;
  std::vector<int64_t> users =
      delta_rng_.SampleWithoutReplacement(num_users, rows);
  std::sort(users.begin(), users.end());
  for (const int64_t user : users) {
    float* row = target.scores.data() + user * num_items;
    for (int64_t item = 0; item < num_items; ++item) {
      row[item] += 0.5f * delta_rng_.Normal();
    }
    std::vector<int64_t>& seen = target.seen[static_cast<size_t>(user)];
    if (static_cast<int64_t>(seen.size()) < num_items) {
      int64_t item = 0;
      do {
        item = static_cast<int64_t>(
            delta_rng_.UniformInt(static_cast<uint64_t>(num_items)));
      } while (std::binary_search(seen.begin(), seen.end(), item));
      seen.insert(std::lower_bound(seen.begin(), seen.end(), item), item);
    }
    change.users.push_back(user);
    change.scores.emplace_back(row, row + num_items);
    change.seen.push_back(seen);
  }

  cgkgr::Result<serve::SnapshotDelta> delta =
      Status::Internal("delta not built");
  {
    cgkgr::obs::ScopedSpan span("bench/serve.delta_build");
    delta = serve::BuildDelta(current_, target);
  }
  tally->Op(delta.ok(), "BuildDelta");
  if (!delta.ok()) return false;
  tally->Check(static_cast<int64_t>(delta.value().rows.size()) == rows,
               "delta holds the rewritten rows only");

  const std::string path =
      dir_ + StrFormat("/snap-%06lld.delta", static_cast<long long>(
                                                  next_file_++));
  const double save_start_us = MicrosSince(origin);
  Status status;
  {
    cgkgr::obs::ScopedSpan span("bench/serve.delta_save");
    status = serve::SaveDelta(delta.value(), path);
  }
  tally->Op(status.ok(), "SaveDelta");
  if (!status.ok()) return false;

  {
    cgkgr::obs::ScopedSpan span("bench/serve.reload");
    status = engine_->ReloadFromDir(dir_);
  }
  const double reload_end_us = MicrosSince(origin);
  const bool installed =
      status.ok() && engine_->generation() == change.generation;
  tally->Op(installed, "ReloadFromDir installs the delta");
  if (!installed) return false;

  result->delta_rows.push_back(static_cast<double>(rows));
  log->push_back({change.generation, save_start_us, reload_end_us});
  published_generation_ = change.generation;
  changes_.push_back(std::move(change));
  current_ = std::move(target);
  return true;
}

ClosedLoopResult ServeSession::RunClosedLoop(double seconds,
                                             int64_t publishes) {
  ClosedLoopResult result;
  const PhaseCounters before = CountersNow();
  const Clock::time_point origin = Clock::now();
  const auto at = [origin](double s) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };

  PublishLog log;
  Tally publisher_tally;
  std::atomic<bool> publisher_done{false};
  std::atomic<uint64_t> published{published_generation_};
  std::thread publisher([&] {
    for (int64_t j = 0; j < publishes; ++j) {
      std::this_thread::sleep_until(
          at(seconds * static_cast<double>(j + 1) /
             static_cast<double>(publishes + 1)));
      if (!Publish(origin, &result, &log, &publisher_tally)) break;
      published.store(published_generation_);
    }
    publisher_done.store(true);
  });
  // Joins the publisher on every path out of this function.
  struct Joiner {
    std::thread* thread;
    ~Joiner() {
      if (thread->joinable()) thread->join();
    }
  } joiner{&publisher};

  // Generation -> first time (us since origin) a response carried it.
  std::map<uint64_t, double> first_seen;
  uint64_t last_generation = 0;
  uint64_t newest_seen = 0;
  std::deque<std::pair<std::future<serve::Response>, int64_t>> in_flight;
  auto submit = [&] {
    const serve::Request request = NextRequest();
    in_flight.emplace_back(frontend_->Submit(request), request.user);
  };
  // The client blocks on its oldest request instead of polling: a spinning
  // client would hold a CPU the publisher needs, and a publish that waits
  // for a CPU shows up as reload latency.
  auto collect = [&] {
    in_flight.front().first.wait();
    const serve::Response response = in_flight.front().first.get();
    const double now_us = MicrosSince(origin);
    if (response.ok()) {
      ++result.ok;
      for (uint64_t g = newest_seen + 1; g <= response.generation; ++g) {
        first_seen.emplace(g, now_us);
      }
      newest_seen = std::max(newest_seen, response.generation);
    }
    Observe(response, in_flight.front().second, &last_generation);
    in_flight.pop_front();
  };
  double window_end_us = kQpsWindowSeconds * 1e6;
  int64_t window_start_ok = 0;
  for (int64_t i = 0; i < kInFlight; ++i) submit();
  // Past the nominal end, keep the loop going until every publish has
  // landed and become visible (bounded by a grace period).
  const Clock::time_point end = at(seconds);
  const Clock::time_point hard_end = at(seconds + 5.0);
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool settled =
        publisher_done.load() && newest_seen >= published.load();
    if (now >= hard_end || (now >= end && settled)) break;
    collect();
    submit();
    if (MicrosSince(origin) >= window_end_us) {
      result.window_qps.push_back(static_cast<double>(result.ok -
                                                      window_start_ok) /
                                  kQpsWindowSeconds);
      window_start_ok = result.ok;
      window_end_us += kQpsWindowSeconds * 1e6;
    }
  }
  while (!in_flight.empty()) collect();
  result.seconds = MicrosSince(origin) * 1e-6;
  publisher.join();
  tally_.Merge(publisher_tally);

  for (const PublishRecord& record : log) {
    const auto seen = first_seen.find(record.generation);
    tally_.Op(seen != first_seen.end(), "published generation never served");
    if (seen == first_seen.end()) continue;
    result.visible_ms.push_back((seen->second - record.save_start_us) * 1e-3);
    result.visible_after_reload_ms.push_back(
        (seen->second - record.reload_end_us) * 1e-3);
  }
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(result.ok) / result.seconds
                   : 0.0;
  result.counters = Since(before, CountersNow());
  return result;
}

OpenLoopResult ServeSession::RunOpenLoop(double seconds, double rate_qps) {
  OpenLoopResult result;
  struct Pending {
    std::future<serve::Response> future;
    double due_us = 0.0;
    int64_t user = 0;
  };
  std::deque<Pending> pending;
  uint64_t last_generation = 0;
  const Clock::time_point origin = Clock::now();
  auto poll = [&] {
    while (!pending.empty() && Ready(pending.front().future)) {
      const double latency_us = MicrosSince(origin) - pending.front().due_us;
      const serve::Response response = pending.front().future.get();
      if (response.ok()) {
        result.latency_us.push_back(latency_us);
        if (latency_us <= kOpenSloMicros) ++result.within_slo;
      }
      Observe(response, pending.front().user, &last_generation);
      pending.pop_front();
    }
  };
  const double end_us = seconds * 1e6;
  double due_us = 0.0;
  for (;;) {
    due_us += -std::log(1.0 - rng_.UniformDouble()) / rate_qps * 1e6;
    if (due_us >= end_us) break;
    while (MicrosSince(origin) < due_us) poll();
    result.max_late_ms =
        std::max(result.max_late_ms, (MicrosSince(origin) - due_us) * 1e-3);
    const serve::Request request = NextRequest();
    pending.push_back({frontend_->Submit(request), due_us, request.user});
    ++result.attempted;
  }
  while (!pending.empty()) poll();
  return result;
}

void ServeSession::VerifySamples() {
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.generation < b.generation;
                   });
  serve::Snapshot own = *base_;
  size_t applied = 0;
  for (const Sample& sample : samples_) {
    if (sample.generation < anchor_generation_ ||
        sample.generation > published_generation_) {
      tally_.Check(false, "response from an unpublished generation");
      continue;
    }
    while (applied < changes_.size() &&
           changes_[applied].generation <= sample.generation) {
      const Change& change = changes_[applied++];
      for (size_t r = 0; r < change.users.size(); ++r) {
        const int64_t user = change.users[r];
        std::copy(change.scores[r].begin(), change.scores[r].end(),
                  own.scores.begin() + user * own.num_items);
        own.seen[static_cast<size_t>(user)] = change.seen[r];
      }
    }
    tally_.Check(ReferenceTopK(own, sample.user, kTopK) == sample.items,
                 "response differs from the reference top-k");
  }
  samples_.clear();
}

}  // namespace perfbench
