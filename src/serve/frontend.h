#ifndef CGKGR_SERVE_FRONTEND_H_
#define CGKGR_SERVE_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
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
/// Obs instruments (labeled {frontend="<id>"}):
/// serve_frontend_{submitted,completed,shed,batches}_total,
/// serve_frontend_batch_size (histogram), serve_frontend_queue_depth
/// (gauge).
class Frontend {
 public:
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
  };

  /// The dispatcher: waits for work, pops up to max_batch entries and
  /// serves them as one batch. Returns when stop_ is set and the queue is
  /// empty.
  void DispatcherLoop() CGKGR_EXCLUDES(mu_);

  Router* const router_;
  const FrontendOptions options_;

  mutable Mutex mu_;
  CondVar work_cv_;  // queue became non-empty / stopping
  std::deque<Pending> queue_ CGKGR_GUARDED_BY(mu_);
  bool stop_ CGKGR_GUARDED_BY(mu_) = false;
  int64_t queue_peak_ CGKGR_GUARDED_BY(mu_) = 0;

  // Registry-owned instruments; set once in the constructor.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;

  /// The dispatcher runs as a long-lived pool task; declared last so the
  /// pool joins (draining the queue) before any other member is destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_FRONTEND_H_
