// Tests for common/thread_pool: exactly-once ParallelFor coverage under
// concurrency, inline single-lane behaviour, Submit/WaitIdle draining,
// nested use, and the busy-time counter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace cgkgr {
namespace {

TEST(ThreadPoolTest, LaneAccounting) {
  ThreadPool one(1);
  EXPECT_EQ(one.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 20000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  pool.ParallelForEach(0, kN, /*grain=*/7, [&](int64_t i) {
    visits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::atomic<int64_t> covered{0};
  pool.ParallelFor(5, 1234, /*grain=*/31, [&](int64_t begin, int64_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, 31);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 1234 - 5);
}

TEST(ThreadPoolTest, SingleLaneRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<int64_t> order;
  // No workers: chunks run on the caller in ascending order, so a plain
  // (non-atomic) vector is safe and the order is deterministic.
  pool.ParallelForEach(0, 10, /*grain=*/3, [&](int64_t i) {
    order.push_back(i);
  });
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, EmptyAndSingleChunkRanges) {
  ThreadPool pool(4);
  int64_t calls = 0;
  pool.ParallelFor(3, 3, 8, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // One chunk runs inline on the caller even with workers available.
  pool.ParallelFor(0, 5, 8, [&](int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int64_t> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int64_t> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelForEach(0, 8, 1, [&](int64_t) {
    pool.ParallelForEach(0, 16, 4, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, BusyCounterMetersTheCallersChunksToo) {
  // threadpool_busy_micros_total counts chunk time on every lane, the
  // calling thread's included, so two 20 ms chunks on two lanes add about
  // two chunk-times wherever each chunk runs.
  static constexpr int64_t kChunkMicros = 20000;
  ThreadPool pool(2, "busy_test");
  obs::Counter* busy = obs::MetricsRegistry::Default().GetCounter(
      "threadpool_busy_micros_total", {{"pool", "busy_test"}});
  const int64_t before = busy->value();
  pool.ParallelFor(0, 2, /*grain=*/1, [](int64_t, int64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(kChunkMicros));
  });
  // A helper's task records its time after ParallelFor may have returned.
  pool.WaitIdle();
  EXPECT_GE(busy->value() - before, kChunkMicros * 18 / 10);
}

TEST(ThreadPoolTest, InlinePoolLeavesBusyCounterAlone) {
  ThreadPool pool(1, "busy_inline_test");
  obs::Counter* busy = obs::MetricsRegistry::Default().GetCounter(
      "threadpool_busy_micros_total", {{"pool", "busy_inline_test"}});
  pool.ParallelFor(0, 4, /*grain=*/1, [](int64_t, int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(busy->value(), 0);
}

}  // namespace
}  // namespace cgkgr
