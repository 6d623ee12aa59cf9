// Tests for the online serving plane above the Engine: Router tenant
// resolution, Frontend admission control (queue-full shedding, shutdown
// drain), and the reload-under-load integration — worker threads hammer
// the Frontend while full and delta snapshots are published and
// hot-reloaded, with zero silently dropped requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace serve {
namespace {

/// A deterministic synthetic snapshot: scores vary by (user, item) so
/// per-user rankings differ, every seen list empty.
Snapshot MakeSnapshot(int64_t num_users, int64_t num_items, uint64_t seed) {
  Snapshot snapshot;
  snapshot.model_name = "frontend-test";
  snapshot.dataset_name = "synthetic";
  snapshot.num_users = num_users;
  snapshot.num_items = num_items;
  snapshot.scores.resize(static_cast<size_t>(num_users * num_items));
  Rng rng(seed);
  for (float& score : snapshot.scores) {
    score = rng.Uniform(-1.0f, 1.0f);
  }
  snapshot.seen.resize(static_cast<size_t>(num_users));
  return snapshot;
}

/// `base` with `delta_add` added to every score row in [first_user, U).
Snapshot Perturbed(const Snapshot& base, int64_t first_user,
                   float delta_add) {
  Snapshot next = base;
  for (int64_t user = first_user; user < base.num_users; ++user) {
    float* row = next.scores.data() + user * next.num_items;
    for (int64_t item = 0; item < next.num_items; ++item) {
      row[item] += delta_add;
    }
  }
  return next;
}

Request MakeRequest(int64_t user, int64_t k,
                    const std::string& tenant = "") {
  Request request;
  request.user = user;
  request.k = k;
  request.tenant = tenant;
  return request;
}

// --- Router ---

TEST(RouterTest, RoutesTenantsAndRejectsDuplicatesAndUnknowns) {
  auto snapshot_a = std::make_shared<const Snapshot>(MakeSnapshot(4, 8, 1));
  auto snapshot_b = std::make_shared<const Snapshot>(MakeSnapshot(4, 8, 2));
  Router router;
  ASSERT_TRUE(router.AddTenant("alpha", snapshot_a, EngineOptions{}).ok());
  ASSERT_TRUE(router.AddTenant("beta", snapshot_b, EngineOptions{}).ok());
  EXPECT_EQ(router.AddTenant("alpha", snapshot_a, EngineOptions{}).code(),
            StatusCode::kAlreadyExists);

  // Explicit tenants resolve to their engines; the two snapshots rank
  // differently so the responses witness the routing.
  const Response from_a = router.Handle(MakeRequest(0, 3, "alpha"));
  const Response from_b = router.Handle(MakeRequest(0, 3, "beta"));
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(from_a.items,
            router.GetEngine("alpha")->Handle(MakeRequest(0, 3)).items);
  EXPECT_EQ(from_b.items,
            router.GetEngine("beta")->Handle(MakeRequest(0, 3)).items);
  EXPECT_NE(from_a.items, from_b.items);

  // The empty tenant resolves to the first tenant added.
  EXPECT_EQ(router.Handle(MakeRequest(0, 3)).items, from_a.items);

  // Unknown tenants yield a typed response, not a crash or a fallback.
  const Response unknown = router.Handle(MakeRequest(0, 3, "gamma"));
  EXPECT_EQ(unknown.status, ResponseStatus::kUnknownTenant);
  EXPECT_FALSE(unknown.ok());

  EXPECT_NE(router.GetEngine("alpha"), nullptr);
  EXPECT_EQ(router.GetEngine("gamma"), nullptr);
}

TEST(RouterTest, HandleBatchGroupsPerEngineAndKeepsOrder) {
  auto snapshot_a = std::make_shared<const Snapshot>(MakeSnapshot(8, 16, 4));
  auto snapshot_b = std::make_shared<const Snapshot>(MakeSnapshot(8, 16, 5));
  Router router;
  ASSERT_TRUE(router.AddTenant("alpha", snapshot_a, EngineOptions{}).ok());
  ASSERT_TRUE(router.AddTenant("beta", snapshot_b, EngineOptions{}).ok());

  std::vector<Request> batch;
  for (int64_t user = 0; user < 8; ++user) {
    batch.push_back(
        MakeRequest(user, 4, user % 2 == 0 ? "alpha" : "beta"));
  }
  batch.push_back(MakeRequest(0, 4, "gamma"));  // unknown mid-batch
  const std::vector<Response> responses = router.HandleBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (int64_t user = 0; user < 8; ++user) {
    const Response& response = responses[static_cast<size_t>(user)];
    ASSERT_TRUE(response.ok()) << "user " << user;
    // Batch answers match the named tenant's engine.
    EXPECT_EQ(response.items,
              router.GetEngine(user % 2 == 0 ? "alpha" : "beta")
                  ->Handle(MakeRequest(user, 4))
                  .items);
  }
  EXPECT_EQ(responses.back().status, ResponseStatus::kUnknownTenant);
}

// --- Frontend admission control ---

TEST(FrontendTest, CreateValidatesArguments) {
  auto snapshot = std::make_shared<const Snapshot>(MakeSnapshot(2, 4, 6));
  Router router;
  ASSERT_TRUE(router.AddTenant("main", snapshot, EngineOptions{}).ok());
  EXPECT_FALSE(Frontend::Create(nullptr, FrontendOptions{}).ok());
  FrontendOptions bad;
  bad.max_batch = 0;
  EXPECT_FALSE(Frontend::Create(&router, bad).ok());
  bad = FrontendOptions{};
  bad.max_queue = 0;
  EXPECT_FALSE(Frontend::Create(&router, bad).ok());
  EXPECT_TRUE(Frontend::Create(&router, FrontendOptions{}).ok());
}

TEST(FrontendTest, ServesSubmissionsThroughTheRouter) {
  auto snapshot = std::make_shared<const Snapshot>(MakeSnapshot(16, 32, 7));
  Router router;
  ASSERT_TRUE(router.AddTenant("main", snapshot, EngineOptions{}).ok());
  Result<std::unique_ptr<Frontend>> frontend =
      Frontend::Create(&router, FrontendOptions{});
  ASSERT_TRUE(frontend.ok());

  Engine reference(snapshot, EngineOptions{});
  std::vector<std::future<Response>> futures;
  for (int64_t user = 0; user < 16; ++user) {
    futures.push_back(frontend.value()->Submit(MakeRequest(user, 5)));
  }
  for (int64_t user = 0; user < 16; ++user) {
    Response response = futures[static_cast<size_t>(user)].get();
    ASSERT_TRUE(response.ok()) << "user " << user;
    EXPECT_EQ(response.items, reference.Handle(MakeRequest(user, 5)).items)
        << "user " << user;
  }
  const FrontendStats stats = frontend.value()->stats();
  EXPECT_EQ(stats.submitted, 16);
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_GE(stats.batches, 1);
  // An invalid request still yields a fulfilled future with a typed error.
  EXPECT_EQ(frontend.value()->Submit(MakeRequest(-1, 5)).get().status,
            ResponseStatus::kInvalidArgument);
}

TEST(FrontendTest, ShedsWhenTheAdmissionQueueIsFull) {
  // A deliberately slow engine (large catalog, single lane) with a tiny
  // queue: the submission burst outruns the dispatcher and must shed.
  auto snapshot =
      std::make_shared<const Snapshot>(MakeSnapshot(4, 200000, 8));
  Router router;
  ASSERT_TRUE(router.AddTenant("main", snapshot, EngineOptions{}).ok());
  FrontendOptions options;
  options.max_batch = 1;
  options.max_queue = 2;
  Result<std::unique_ptr<Frontend>> frontend =
      Frontend::Create(&router, options);
  ASSERT_TRUE(frontend.ok());

  std::vector<std::future<Response>> futures;
  for (int64_t i = 0; i < 64; ++i) {
    futures.push_back(frontend.value()->Submit(MakeRequest(i % 4, 10)));
  }
  int64_t ok = 0;
  int64_t shed = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (response.status == ResponseStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, ResponseStatus::kShedQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 64);
  EXPECT_GT(ok, 0);    // admitted requests are served...
  EXPECT_GT(shed, 0);  // ...and overload is refused, not buffered
  const FrontendStats stats = frontend.value()->stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_GT(stats.ShedFraction(), 0.0);
  EXPECT_LE(stats.queue_peak, 2);
}

TEST(FrontendTest, DestructorDrainsEveryQueuedRequest) {
  auto snapshot =
      std::make_shared<const Snapshot>(MakeSnapshot(4, 50000, 10));
  Router router;
  ASSERT_TRUE(router.AddTenant("main", snapshot, EngineOptions{}).ok());
  std::vector<std::future<Response>> futures;
  {
    FrontendOptions options;
    options.max_batch = 8;
    Result<std::unique_ptr<Frontend>> frontend =
        Frontend::Create(&router, options);
    ASSERT_TRUE(frontend.ok());
    for (int64_t i = 0; i < 256; ++i) {
      futures.push_back(frontend.value()->Submit(MakeRequest(i % 4, 10)));
    }
    // Frontend destroyed here with most of the queue still pending.
  }
  for (auto& future : futures) {
    // Every admitted request was drained and served before the destructor
    // returned — none dropped, none left hanging.
    EXPECT_EQ(future.get().status, ResponseStatus::kOk);
  }
}

// --- Reload under load ---

// The integration hammer: worker threads drive the Frontend while the
// publisher installs a full snapshot and then a delta on top, through the
// same ReloadFromDir poll a production watcher would use. Every submitted
// request must come back kOk (the queue is deep), generations must be
// monotone per worker (the one dispatcher pops FIFO), and
// the engine must end bit-exact with the final published state.
TEST(FrontendTest, ServesCorrectlyWhileFullAndDeltaReloadsPublish) {
  const std::string dir =
      ::testing::TempDir() + "/serve-frontend-reload-dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int64_t num_users = 32;
  const Snapshot base = MakeSnapshot(num_users, 512, 11);
  const Snapshot second = Perturbed(base, num_users / 2, 1.0f);
  const Snapshot third = Perturbed(second, num_users / 2, 0.5f);
  ASSERT_TRUE(SaveSnapshot(base, dir + "/snap-000001.snap").ok());

  Router router;
  EngineOptions engine_options;
  engine_options.cache_capacity = 1024;
  ASSERT_TRUE(
      router
          .AddTenant("main",
                     std::make_shared<const Snapshot>(base), engine_options)
          .ok());
  Engine* engine = router.GetEngine("main");
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->ReloadFromDir(dir).ok());  // anchor on snap-000001
  const uint64_t anchored_generation = engine->generation();

  FrontendOptions frontend_options;
  frontend_options.max_batch = 16;
  frontend_options.max_queue = 1 << 16;  // never shed in this test
  Result<std::unique_ptr<Frontend>> frontend =
      Frontend::Create(&router, frontend_options);
  ASSERT_TRUE(frontend.ok());

  constexpr int kWorkers = 4;
  constexpr int kRequestsPerWorker = 400;
  std::vector<int> served(kWorkers, 0);
  // int, not bool: vector<bool> packs bits, and the workers write
  // concurrently to distinct indices.
  std::vector<int> monotonic(kWorkers, 1);
  {
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        uint64_t last_generation = 0;
        for (int i = 0; i < kRequestsPerWorker; ++i) {
          const Response response =
              frontend.value()
                  ->Submit(MakeRequest((w * 131 + i) % num_users, 10))
                  .get();
          if (response.status != ResponseStatus::kOk ||
              response.items.empty()) {
            return;  // served[w] stays short => the assertion below fails
          }
          // One dispatcher pops FIFO, so generations never move backward.
          monotonic[w] = monotonic[w] != 0 &&
                                 response.generation >= last_generation
                             ? 1
                             : 0;
          last_generation = response.generation;
          ++served[w];
        }
      });
    }
    // Publish mid-stream, racing the workers: a full rewrite, then a delta
    // that touches only the upper half of the user space.
    ASSERT_TRUE(SaveSnapshot(second, dir + "/snap-000002.snap").ok());
    ASSERT_TRUE(engine->ReloadFromDir(dir).ok());
    Result<SnapshotDelta> delta = BuildDelta(second, third);
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(SaveDelta(delta.value(), dir + "/snap-000003.delta").ok());
    ASSERT_TRUE(engine->ReloadFromDir(dir).ok());
    for (std::thread& worker : workers) worker.join();
  }

  for (int w = 0; w < kWorkers; ++w) {
    // Zero dropped or errored requests: every single one came back kOk.
    EXPECT_EQ(served[w], kRequestsPerWorker) << "worker " << w;
    EXPECT_EQ(monotonic[w], 1) << "worker " << w;
  }
  // Both installs landed: the anchor, the full reload, the delta patch.
  EXPECT_EQ(engine->generation(), anchored_generation + 2);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.snapshot_reloads, 2);  // anchor + full
  EXPECT_EQ(stats.snapshot_delta_reloads, 1);
  // The served bits are bit-exact with the final published state.
  EXPECT_EQ(SnapshotFingerprint(*engine->snapshot()),
            SnapshotFingerprint(third));
  // Row-level invalidation: post-reload traffic on the untouched lower
  // half found its pre-delta cache entries, so hits accrued after the
  // delta (whole-cache invalidation would have started from zero).
  EXPECT_GT(stats.cache_hits, 0);
  const FrontendStats frontend_stats = frontend.value()->stats();
  EXPECT_EQ(frontend_stats.submitted, kWorkers * kRequestsPerWorker);
  EXPECT_EQ(frontend_stats.completed, frontend_stats.submitted);
  EXPECT_EQ(frontend_stats.shed, 0);
}

}  // namespace
}  // namespace serve
}  // namespace cgkgr
