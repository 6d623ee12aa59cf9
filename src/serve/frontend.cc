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
#include "common/timer.h"
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

/// Tells the core this is a spin-wait: `pause` on x86 eases the sibling
/// hyperthread and the exit from the loop.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
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
  wakeups_ = registry.GetCounter("serve_frontend_wakeups_total", labels);
  batch_size_ = registry.GetHistogram("serve_frontend_batch_size", labels);
  queue_wait_ =
      registry.GetHistogram("serve_frontend_queue_wait_micros", labels);
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
  bool wake = false;
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
      // One Submit wakes a parked dispatcher; later ones before it runs
      // find parked_ clear and skip the notify.
      wake = parked_;
      parked_ = false;
    }
  }
  if (rejected == ResponseStatus::kOk) {
    admitted_.fetch_add(1);
    queue_depth_->Add(1.0);
    // No lost wake-up: the dispatcher set parked_ under mu_ and
    // condition_variable_any holds its internal mutex while it releases
    // mu_, so this notify cannot fall between its check and its wait.
    if (wake) {
      wakeups_->Increment();
      work_cv_.notify_one();
    }
    return future;
  }
  if (rejected == ResponseStatus::kShedQueueFull) shed_->Increment();
  Response response;
  response.status = rejected;
  promise.set_value(std::move(response));
  return future;
}

void Frontend::SpinForWork(uint64_t dequeued) const {
  // admitted_ may trail `dequeued` while a popped request's Submit has not
  // bumped it yet; that is no new work.
  const WallTimer spin;
  while (admitted_.load() <= dequeued) {
    if (spin.ElapsedMillis() * 1e3 >= kSpinMicros) return;
    CpuRelax();
  }
}

void Frontend::DispatcherLoop() {
  uint64_t dequeued = 0;
  // Spin only while requests arrive within kSpinMicros of the previous
  // batch, as a synchronous caller's do. After a sparser arrival the spin
  // would miss the next request anyway, and it holds the CPU that a woken
  // dispatcher often shares with the submitter: an open loop at 2,500 qps
  // over a 1440x3360 snapshot read a p50 ~10 us worse with it.
  bool spin = true;
  for (;;) {
    const WallTimer idle;
    if (spin) SpinForWork(dequeued);
    std::vector<Pending> popped;
    {
      MutexLock lock(&mu_);
      // Explicit wait loop (not the predicate overload): clang's thread
      // safety analysis treats a predicate lambda as a lock-free context.
      // parked_ is set under the same lock as the check, so a Submit that
      // queues after the check sees it and notifies.
      while (!stop_ && queue_.empty()) {
        parked_ = true;
        work_cv_.wait(mu_);
      }
      parked_ = false;
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      while (!queue_.empty() &&
             static_cast<int64_t>(popped.size()) < options_.max_batch) {
        popped.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // The oldest popped request arrived its queue wait before now.
    spin = idle.ElapsedMillis() - popped.front().admitted.ElapsedMillis() <=
           kSpinMicros * 1e-3;
    dequeued += popped.size();
    queue_depth_->Add(-static_cast<double>(popped.size()));

    std::vector<Request> batch;
    batch.reserve(popped.size());
    for (Pending& pending : popped) {
      queue_wait_->Record(pending.admitted.ElapsedMillis() * 1e3);
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
  stats.wakeups = wakeups_->value();
  const obs::HistogramSnapshot queue_wait = queue_wait_->Snapshot();
  stats.queue_wait_p50_us = queue_wait.Percentile(0.50);
  stats.queue_wait_p99_us = queue_wait.Percentile(0.99);
  {
    MutexLock lock(&mu_);
    stats.queue_peak = queue_peak_;
  }
  return stats;
}

}  // namespace serve
}  // namespace cgkgr
