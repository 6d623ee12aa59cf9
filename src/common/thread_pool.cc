#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace cgkgr {

void ThreadPool::RunMetered(const std::function<void()>& task) {
  WallTimer timer;
  task();
  const double micros = timer.ElapsedMillis() * 1e3;
  task_micros_->Record(micros);
  tasks_total_->Increment();
  busy_micros_total_->Increment(static_cast<int64_t>(micros));
}

ThreadPool::ThreadPool(int64_t num_threads, const std::string& name) {
  // Instruments resolve before any worker spawns; the registry hands back
  // the same objects for the same (name, labels) pair, so pools sharing a
  // name (or all unnamed pools) share instruments. The inline single-lane
  // path stays unmetered so ThreadPool(1) remains an exact no-op.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::Labels labels =
      name.empty() ? obs::Labels{} : obs::Labels{{"pool", name}};
  queue_depth_ = registry.GetGauge("threadpool_queue_depth", labels);
  task_micros_ = registry.GetHistogram("threadpool_task_micros", labels);
  tasks_total_ = registry.GetCounter("threadpool_tasks_total", labels);
  busy_micros_total_ =
      registry.GetCounter("threadpool_busy_micros_total", labels);
  const int64_t lanes = std::max<int64_t>(1, num_threads);
  workers_.reserve(static_cast<size_t>(lanes - 1));
  for (int64_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Single-lane pools execute inline, so the queue is empty by construction;
  // multi-lane pools drain it in WorkerLoop before exiting.
  CGKGR_CHECK(queue_.empty());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Explicit wait loop (not the predicate overload): clang's thread
      // safety analysis treats a predicate lambda as a lock-free context.
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    queue_depth_->Add(-1.0);
    RunMetered(task);
    {
      MutexLock lock(&mu_);
      --in_flight_;
    }
    idle_cv_.notify_all();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  CGKGR_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(&mu_);
    CGKGR_CHECK_MSG(!stop_, "Submit after ~ThreadPool began");
    queue_.push_back(std::move(task));
  }
  queue_depth_->Add(1.0);
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(mu_);
}

bool ThreadPool::TryRunQueuedTask() {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
  }
  queue_depth_->Add(-1.0);
  RunMetered(task);
  {
    MutexLock lock(&mu_);
    --in_flight_;
  }
  idle_cv_.notify_all();
  return true;
}

namespace {

/// Shared state of one ParallelFor call. Chunks are claimed with an atomic
/// cursor so load-imbalanced bodies still spread across lanes.
struct ForState {
  std::atomic<int64_t> next{0};
  int64_t end = 0;
  int64_t grain = 1;
  const std::function<void(int64_t, int64_t)>* body = nullptr;

  Mutex mu;
  CondVar done_cv;
  int64_t pending_helpers CGKGR_GUARDED_BY(mu) = 0;

  void RunChunks() {
    for (;;) {
      const int64_t chunk_begin = next.fetch_add(grain);
      if (chunk_begin >= end) return;
      (*body)(chunk_begin, std::min(chunk_begin + grain, end));
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  if (workers_.empty() || num_chunks == 1) {
    // Inline fast path: identical to a plain loop over [begin, end).
    for (int64_t c = begin; c < end; c += grain) {
      body(c, std::min(c + grain, end));
    }
    return;
  }

  // Helpers beyond the participating caller; never more than the extra
  // chunks available, so no helper wakes up to an empty range.
  const int64_t helpers = std::min<int64_t>(
      static_cast<int64_t>(workers_.size()), num_chunks - 1);
  auto state = std::make_shared<ForState>();
  state->next.store(begin);
  state->end = end;
  state->grain = grain;
  state->body = &body;
  {
    MutexLock lock(&state->mu);
    state->pending_helpers = helpers;
  }
  for (int64_t h = 0; h < helpers; ++h) {
    Submit([state] {
      state->RunChunks();
      {
        MutexLock lock(&state->mu);
        --state->pending_helpers;
      }
      state->done_cv.notify_one();
    });
  }
  // The caller's chunks count as busy time like a helper's task; its
  // completion wait below does not.
  WallTimer caller_timer;
  state->RunChunks();
  busy_micros_total_->Increment(
      static_cast<int64_t>(caller_timer.ElapsedMillis() * 1e3));
  // `body` lives on the caller's stack: every helper must be done before we
  // return, even ones that found the range already exhausted. While waiting
  // we keep draining the queue — if every lane merely blocked here, nested
  // ParallelFor (helpers queued behind tasks that are themselves waiting)
  // would deadlock.
  for (;;) {
    {
      MutexLock lock(&state->mu);
      if (state->pending_helpers == 0) return;
    }
    if (!TryRunQueuedTask()) {
      MutexLock lock(&state->mu);
      if (state->pending_helpers != 0) {
        state->done_cv.wait_for(state->mu,
                                std::chrono::milliseconds(1));  // NOLINT(adhoc-timing)
      }
    }
  }
}

void ThreadPool::ParallelForEach(int64_t begin, int64_t end, int64_t grain,
                                 const std::function<void(int64_t)>& body) {
  ParallelFor(begin, end, grain, [&body](int64_t chunk_begin, int64_t chunk_end) {
    for (int64_t i = chunk_begin; i < chunk_end; ++i) body(i);
  });
}

int64_t ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int64_t>(n);
}

}  // namespace cgkgr
