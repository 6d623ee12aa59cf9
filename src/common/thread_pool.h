#ifndef CGKGR_COMMON_THREAD_POOL_H_
#define CGKGR_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"

namespace cgkgr {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// A fixed-size worker pool with a shared FIFO task queue, used by the
/// serving engine (src/serve/) and available to future training/eval
/// parallelism.
///
/// Sizing convention: `ThreadPool(n)` provides *n concurrent lanes* for
/// ParallelFor — the calling thread always participates, so n-1 worker
/// threads are spawned. `ThreadPool(1)` therefore spawns no threads at all
/// and every operation runs inline on the caller, byte-for-byte equivalent
/// to not having a pool (this is what makes `num_threads = 1` knobs exact
/// no-ops).
///
/// Tasks must not throw: the library's error model is Status/abort, and a
/// throwing task would terminate the process from the worker loop.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` lanes (spawns num_threads - 1
  /// workers). Values < 1 are clamped to 1. A non-empty `name` labels the
  /// pool's registry instruments with {pool=<name>}, so e.g. the serving
  /// and training pools report separate queue depths; an empty name uses
  /// the unlabeled process-wide instruments.
  explicit ThreadPool(int64_t num_threads, const std::string& name = "");

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes available to ParallelFor (worker threads + the caller).
  int64_t num_threads() const {
    return static_cast<int64_t>(workers_.size()) + 1;
  }

  /// Enqueues `task` for asynchronous execution. With a single-lane pool
  /// (no workers) the task runs inline before Submit returns.
  void Submit(std::function<void()> task) CGKGR_EXCLUDES(mu_);

  /// Calls `body(chunk_begin, chunk_end)` over disjoint chunks covering
  /// [begin, end) with chunk length <= grain; every index is covered exactly
  /// once. Blocks until all chunks have completed. The calling thread
  /// participates, so this makes progress even when every worker is busy
  /// (nested ParallelFor from inside a task is safe, if rarely useful).
  /// Chunk-to-lane assignment is dynamic: `body` must not depend on which
  /// thread runs which chunk.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  /// Per-index convenience wrapper over the chunked ParallelFor.
  void ParallelForEach(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t)>& body);

  /// Blocks until every task submitted so far has finished executing.
  void WaitIdle() CGKGR_EXCLUDES(mu_);

  /// The hardware concurrency, with a floor of 1 when unknown.
  static int64_t HardwareThreads();

 private:
  void WorkerLoop() CGKGR_EXCLUDES(mu_);

  /// Runs one dequeued task, recording latency/utilization instruments.
  void RunMetered(const std::function<void()>& task);

  /// Pops and runs one queued task if any is pending; returns whether a
  /// task ran. Used by ParallelFor's completion wait so a lane blocked on
  /// its helpers keeps the queue moving (makes nested ParallelFor
  /// deadlock-free). Consequence: any task may execute on any thread that
  /// is inside ParallelFor, not just on workers.
  bool TryRunQueuedTask() CGKGR_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  /// Registry instruments (labeled by pool name when one was given).
  obs::Gauge* queue_depth_;
  obs::Histogram* task_micros_;
  obs::Counter* tasks_total_;
  /// Task time on the workers plus ParallelFor's chunk time on the caller.
  obs::Counter* busy_micros_total_;
  Mutex mu_;
  CondVar work_cv_;  // queue became non-empty / stopping
  CondVar idle_cv_;  // a task finished (for WaitIdle)
  std::deque<std::function<void()>> queue_ CGKGR_GUARDED_BY(mu_);
  /// Tasks popped but not yet finished.
  int64_t in_flight_ CGKGR_GUARDED_BY(mu_) = 0;
  bool stop_ CGKGR_GUARDED_BY(mu_) = false;
};

}  // namespace cgkgr

#endif  // CGKGR_COMMON_THREAD_POOL_H_
