#ifndef CGKGR_SERVE_FRONTEND_H_
#define CGKGR_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/stats.h"

namespace cgkgr {
namespace serve {

/// Admission-control knobs for the async front end.
struct FrontendOptions {
  /// Requests coalesced into one Router::HandleBatch dispatch.
  int64_t max_batch = 64;
  /// Bounded admission queue: a Submit arriving while this many requests
  /// wait is shed immediately with kShedQueueFull (fail fast beats
  /// unbounded memory growth and ever-later answers under overload).
  int64_t max_queue = 1024;
};

/// The async serving front end: producers Submit() requests and receive
/// futures; one dispatcher thread drains the bounded queue in FIFO order,
/// coalesces it into micro-batches, and pushes them through
/// Router::HandleBatch (which dedups hot repeats and spreads work across
/// each engine's pool).
///
/// Every admitted request's future is eventually fulfilled with its
/// response. None are silently dropped: the destructor stops admission,
/// and the dispatcher exits only once it has drained the queue.
///
/// Hand-off: between batches the dispatcher polls for new work for
/// kSpinMicros before it parks on a condition variable, and Submit
/// notifies only a parked dispatcher. A producer that submits within the
/// budget pays no futex wake on either side; an idle frontend parks and
/// costs no CPU. After a request that arrived later than the budget the
/// dispatcher parks without spinning, so sparse traffic pays no spin.
///
/// Obs instruments (labeled {frontend="<id>"}):
/// serve_frontend_{submitted,completed,shed,batches,wakeups}_total,
/// serve_frontend_batch_size and serve_frontend_queue_wait_micros
/// (histograms), serve_frontend_queue_depth (gauge).
class Frontend {
 public:
  /// How long the idle dispatcher polls for work before it parks. Waking
  /// a parked dispatcher cost ~7 us of a ~14 us sync request on perfbench
  /// `pipeline` (4-vCPU KVM guest whose idle vCPUs halt); a spinning one
  /// burns its core while it polls. A synchronous caller submits again
  /// within 1-2 us, so 10 us catches it, and beside three CPU-burning
  /// processes a sync client's p99 read 28-31 us at 10 us against 67-69 us
  /// at 50 us (docs/serving.md, "Micro-batched admission").
  static constexpr double kSpinMicros = 10.0;

  /// Validating factory; `router` must outlive the frontend.
  static Result<std::unique_ptr<Frontend>> Create(
      Router* router, const FrontendOptions& options);

  /// Direct constructor; CHECK-fails on invalid arguments. Prefer Create().
  Frontend(Router* router, FrontendOptions options);

  /// Stops admission, then drains every queued request through the
  /// dispatcher before returning.
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Enqueues `request` and returns the future answer. Sheds immediately
  /// (kShedQueueFull) when the queue is full, and after shutdown began
  /// (kShutdown).
  std::future<Response> Submit(Request request) CGKGR_EXCLUDES(mu_);

  /// Point-in-time counters.
  FrontendStats stats() const CGKGR_EXCLUDES(mu_);

  const FrontendOptions& options() const { return options_; }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    /// Started at admission; read at dispatch as the queue wait.
    WallTimer admitted;
  };

  /// The dispatcher: waits for work, pops up to max_batch entries and
  /// serves them as one batch. Returns when stop_ is set and the queue is
  /// empty.
  void DispatcherLoop() CGKGR_EXCLUDES(mu_);

  /// Polls admitted_ until it moves past `dequeued` (the requests the
  /// dispatcher has popped so far) or kSpinMicros pass, without taking mu_.
  void SpinForWork(uint64_t dequeued) const;

  Router* const router_;
  const FrontendOptions options_;

  mutable Mutex mu_;
  CondVar work_cv_;  // queue became non-empty / stopping
  std::deque<Pending> queue_ CGKGR_GUARDED_BY(mu_);
  bool stop_ CGKGR_GUARDED_BY(mu_) = false;
  /// The dispatcher waits (or is about to wait) on work_cv_; the next
  /// admitted Submit clears it and notifies.
  bool parked_ CGKGR_GUARDED_BY(mu_) = false;
  int64_t queue_peak_ CGKGR_GUARDED_BY(mu_) = 0;
  /// Requests admitted so far, bumped by Submit after it releases mu_, so
  /// a spinning dispatcher that sees it move never blocks on the lock.
  /// admitted_ > dequeued implies queued work: each bump follows its push.
  std::atomic<uint64_t> admitted_{0};

  // Registry-owned instruments; set once in the constructor.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;

  /// The dispatcher runs as a long-lived pool task; declared last so the
  /// pool joins (draining the queue) before any other member is destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_FRONTEND_H_
