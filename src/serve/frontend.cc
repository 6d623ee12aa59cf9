#include "serve/frontend.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "serve/stats.h"

namespace cgkgr {
namespace serve {

namespace {

/// One label set per Frontend instance: {frontend="0"}, {frontend="1"}, ...
obs::Labels NextFrontendLabels() {
  static std::atomic<int64_t> next_id{0};
  return {{"frontend",
           StrFormat("%lld", static_cast<long long>(
                                 next_id.fetch_add(1,
                                                   std::memory_order_relaxed)))}};
}

}  // namespace

Result<std::unique_ptr<Frontend>> Frontend::Create(
    Router* router, const FrontendOptions& options) {
  if (router == nullptr) {
    return Status::InvalidArgument("Frontend::Create: null router");
  }
  if (options.max_batch < 1) {
    return Status::InvalidArgument("Frontend::Create: max_batch must be >= 1");
  }
  if (options.max_queue < 1) {
    return Status::InvalidArgument("Frontend::Create: max_queue must be >= 1");
  }
  return std::make_unique<Frontend>(router, options);
}

Frontend::Frontend(Router* router, FrontendOptions options)
    : router_(router), options_(options) {
  CGKGR_CHECK(router_ != nullptr);
  CGKGR_CHECK(options_.max_batch > 0);
  CGKGR_CHECK(options_.max_queue > 0);
  const obs::Labels labels = NextFrontendLabels();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  submitted_ = registry.GetCounter("serve_frontend_submitted_total", labels);
  completed_ = registry.GetCounter("serve_frontend_completed_total", labels);
  shed_ = registry.GetCounter("serve_frontend_shed_total", labels);
  batches_ = registry.GetCounter("serve_frontend_batches_total", labels);
  batch_size_ = registry.GetHistogram("serve_frontend_batch_size", labels);
  queue_depth_ = registry.GetGauge("serve_frontend_queue_depth", labels);
  // The dispatcher is a long-lived task, not a ParallelFor lane: the pool
  // needs one worker, and ThreadPool(n) spawns n-1 (a 1-lane pool would run
  // the infinite loop inline in Submit).
  pool_ = std::make_unique<ThreadPool>(2, "serve_frontend");
  pool_->Submit([this] { DispatcherLoop(); });
}

Frontend::~Frontend() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Joins the dispatcher; it drains the queue before exiting, so every
  // admitted request's promise has been fulfilled when this returns.
  pool_.reset();
  CGKGR_CHECK(queue_.empty());
}

std::future<Response> Frontend::Submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submitted_->Increment();
  ResponseStatus rejected = ResponseStatus::kOk;
  {
    MutexLock lock(&mu_);
    if (stop_) {
      rejected = ResponseStatus::kShutdown;
    } else if (static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
      rejected = ResponseStatus::kShedQueueFull;
    } else {
      Pending pending;
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      queue_.push_back(std::move(pending));
      queue_peak_ = std::max(queue_peak_,
                             static_cast<int64_t>(queue_.size()));
    }
  }
  if (rejected == ResponseStatus::kOk) {
    queue_depth_->Add(1.0);
    work_cv_.notify_one();
    return future;
  }
  if (rejected == ResponseStatus::kShedQueueFull) shed_->Increment();
  Response response;
  response.status = rejected;
  promise.set_value(std::move(response));
  return future;
}

void Frontend::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> popped;
    {
      MutexLock lock(&mu_);
      // Explicit wait loop (not the predicate overload): clang's thread
      // safety analysis treats a predicate lambda as a lock-free context.
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      while (!queue_.empty() &&
             static_cast<int64_t>(popped.size()) < options_.max_batch) {
        popped.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    queue_depth_->Add(-static_cast<double>(popped.size()));

    std::vector<Request> batch;
    batch.reserve(popped.size());
    for (Pending& pending : popped) {
      batch.push_back(std::move(pending.request));
    }
    std::vector<Response> responses = router_->HandleBatch(batch);
    // Count before fulfilling the promises: a caller that wakes on its
    // future and immediately reads stats() must see its own completion.
    completed_->Increment(static_cast<int64_t>(popped.size()));
    batches_->Increment();
    batch_size_->Record(static_cast<double>(popped.size()));
    for (size_t i = 0; i < popped.size(); ++i) {
      popped[i].promise.set_value(std::move(responses[i]));
    }
  }
}

FrontendStats Frontend::stats() const {
  FrontendStats stats;
  stats.submitted = submitted_->value();
  stats.completed = completed_->value();
  stats.shed = shed_->value();
  stats.batches = batches_->value();
  {
    MutexLock lock(&mu_);
    stats.queue_peak = queue_peak_;
  }
  return stats;
}

}  // namespace serve
}  // namespace cgkgr
