// Tests for src/serve: snapshot save->load round-trip equality, Engine
// Top-K agreement with brute-force model scoring and with a full sort
// under eval::RanksBefore (ties, NaN, +-inf, +-0), LRU cache eviction and
// invalidation-on-reload, batch/single consistency, snapshot rebuilds that
// are bit-identical (and pinned) for every model, and EvaluateTopK on a
// pure-scoring model agreeing with the rows of its snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "models/registry.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/lru_cache.h"
#include "serve/request.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace serve {
namespace {

data::Dataset SmallDataset() {
  data::SyntheticConfig config;
  config.name = "serve-test";
  config.seed = 99;
  config.num_users = 40;
  config.num_items = 70;
  config.interactions_per_user = 9.0;
  config.triplets_per_item = 4.0;
  return data::GenerateSyntheticDataset(config, 5);
}

/// A quickly trained deterministic pure-function scorer (BPRMF scores are
/// plain dot products: no inference-time sampling, so brute-force and
/// snapshot scoring agree exactly).
std::unique_ptr<models::RecommenderModel> TrainedModel(
    const data::Dataset& dataset) {
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = models::CreateModel("BPRMF", hparams);
  models::TrainOptions options;
  options.max_epochs = 4;
  options.patience = 100;
  options.seed = 7;
  EXPECT_TRUE(model->Fit(dataset, options).ok());
  return model;
}

/// Sorts `ranked` fully under eval::RanksBefore and keeps the first k.
void FullSortTopK(std::vector<ScoredItem>* ranked, int64_t k) {
  std::sort(ranked->begin(), ranked->end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              return eval::RanksBefore(a.score, a.item, b.score, b.item);
            });
  if (static_cast<int64_t>(ranked->size()) > k) {
    ranked->resize(static_cast<size_t>(k));
  }
}

/// Brute-force reference: score every unseen item through the model and
/// fully sort.
std::vector<ScoredItem> BruteForceTopK(models::RecommenderModel* model,
                                       const data::Dataset& dataset,
                                       const std::vector<int64_t>& seen,
                                       int64_t user, int64_t k) {
  std::vector<int64_t> items;
  for (int64_t i = 0; i < dataset.num_items; ++i) {
    if (!std::binary_search(seen.begin(), seen.end(), i)) items.push_back(i);
  }
  const std::vector<int64_t> users(items.size(), user);
  std::vector<float> scores;
  model->ScorePairs(users, items, &scores);
  std::vector<ScoredItem> ranked(items.size());
  for (size_t i = 0; i < items.size(); ++i) ranked[i] = {items[i], scores[i]};
  FullSortTopK(&ranked, k);
  return ranked;
}

/// The items Engine::Handle ranks for (user, k); the request must succeed.
std::vector<ScoredItem> TopKItems(Engine* engine, int64_t user, int64_t k) {
  Request request;
  request.user = user;
  request.k = k;
  const Response response = engine->Handle(request);
  EXPECT_TRUE(response.ok()) << ResponseStatusName(response.status);
  return response.items;
}

// --- Snapshot ---

TEST(SnapshotTest, SaveLoadRoundTripIsExact) {
  Snapshot snapshot;
  snapshot.model_name = "unit test model";
  snapshot.dataset_name = "tiny";
  snapshot.num_users = 3;
  snapshot.num_items = 4;
  snapshot.scores = {0.5f,     -1.25f, 3.1415926f, 0.0f,  //
                     -0.0f,    1e-30f, -7.5e8f,    2.0f,  //
                     0.33333f, 42.0f,  -42.0f,     1e-6f};
  snapshot.seen = {{0, 2}, {}, {1, 2, 3}};
  const std::string path = "/tmp/cgkgr_serve_test.snapshot";
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  Result<Snapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().model_name, snapshot.model_name);
  EXPECT_EQ(loaded.value().dataset_name, snapshot.dataset_name);
  EXPECT_EQ(loaded.value().num_users, snapshot.num_users);
  EXPECT_EQ(loaded.value().num_items, snapshot.num_items);
  ASSERT_EQ(loaded.value().scores.size(), snapshot.scores.size());
  for (size_t i = 0; i < snapshot.scores.size(); ++i) {
    // Hex-float framing: bit-exact, not just approximately equal.
    EXPECT_EQ(loaded.value().scores[i], snapshot.scores[i]) << "score " << i;
  }
  EXPECT_EQ(loaded.value().seen, snapshot.seen);
}

TEST(SnapshotTest, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(LoadSnapshot("/nonexistent/cgkgr.snapshot").ok());
  const std::string path = "/tmp/cgkgr_serve_test_bad.snapshot";
  {
    std::ofstream out(path);
    out << "not-a-snapshot\n";
  }
  EXPECT_FALSE(LoadSnapshot(path).ok());
}

/// A tiny, fully populated snapshot for corruption tests.
Snapshot TinySnapshot() {
  Snapshot snapshot;
  snapshot.model_name = "tiny-model";
  snapshot.dataset_name = "tiny";
  snapshot.num_users = 2;
  snapshot.num_items = 3;
  snapshot.scores = {0.5f, -1.0f, 2.0f, 3.0f, -4.0f, 5.0f};
  snapshot.seen = {{0}, {1, 2}};
  return snapshot;
}

// Regression test for the truncated/oversized-payload bug: a byte-chopped
// snapshot at ANY length, and any trailing garbage, must surface a Status
// from LoadSnapshot — never a crash, resize explosion, or a silently
// misaligned score matrix.
TEST(SnapshotTest, LoadRejectsByteChoppedAndOversizedSnapshots) {
  const std::string path = "/tmp/cgkgr_serve_test_chop.snapshot";
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 0u);
  const std::string chopped_path = path + ".chopped";
  for (size_t length = 0; length < image.size(); ++length) {
    std::ofstream out(chopped_path, std::ios::binary | std::ios::trunc);
    out << image.substr(0, length);
    out.close();
    EXPECT_FALSE(LoadSnapshot(chopped_path).ok())
        << "chopped to " << length << " of " << image.size() << " bytes";
  }
  // Oversized: appended garbage after the frame tail.
  {
    std::ofstream out(chopped_path, std::ios::binary | std::ios::trunc);
    out << image << "extra";
  }
  EXPECT_FALSE(LoadSnapshot(chopped_path).ok());
  // The pristine image still loads (the harness itself is sound).
  EXPECT_TRUE(LoadSnapshot(path).ok());
}

// Regression test: the engine's seen filter splits each row into runs
// between consecutive seen ids, so a list that goes backwards served seen
// items and repeated others. LoadSnapshot refuses it; repeated ids stay
// legal (the train split keeps repeated (user, item) pairs).
TEST(SnapshotTest, LoadRejectsOutOfOrderSeenList) {
  Snapshot snapshot;
  snapshot.model_name = "m";
  snapshot.dataset_name = "d";
  snapshot.num_users = 1;
  snapshot.num_items = 12;
  for (int64_t item = 0; item < snapshot.num_items; ++item) {
    snapshot.scores.push_back(static_cast<float>(snapshot.num_items - item));
  }
  snapshot.seen = {{5, 2}};
  const std::string path = "/tmp/cgkgr_serve_test_unsorted.snapshot";
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  EXPECT_EQ(LoadSnapshot(path).status().code(),
            StatusCode::kInvalidArgument);

  snapshot.seen = {{2, 2, 5}};
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  Result<Snapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Engine engine(std::make_shared<const Snapshot>(std::move(loaded).value()),
                EngineOptions{});
  std::vector<int64_t> served;
  for (const ScoredItem& item : TopKItems(&engine, 0, 5)) {
    served.push_back(item.item);
  }
  EXPECT_EQ(served, (std::vector<int64_t>{0, 1, 3, 4, 6}));
}

TEST(SnapshotTest, BuildSnapshotMatchesModelScores) {
  const data::Dataset dataset = SmallDataset();
  auto model = TrainedModel(dataset);
  const Snapshot snapshot = BuildSnapshot(model.get(), dataset);
  EXPECT_EQ(snapshot.model_name, model->name());
  EXPECT_EQ(snapshot.num_users, dataset.num_users);
  EXPECT_EQ(snapshot.num_items, dataset.num_items);
  EXPECT_EQ(snapshot.seen, dataset.BuildTrainPositives());

  // Spot-check full rows against direct model calls.
  for (int64_t user : {int64_t{0}, dataset.num_users / 2,
                       dataset.num_users - 1}) {
    std::vector<int64_t> items(static_cast<size_t>(dataset.num_items));
    for (int64_t i = 0; i < dataset.num_items; ++i) {
      items[static_cast<size_t>(i)] = i;
    }
    const std::vector<int64_t> users(items.size(), user);
    std::vector<float> expected;
    model->ScorePairs(users, items, &expected);
    const float* row = snapshot.UserScores(user);
    for (int64_t i = 0; i < dataset.num_items; ++i) {
      ASSERT_EQ(row[i], expected[static_cast<size_t>(i)])
          << "user " << user << " item " << i;
    }
  }
}

// --- Engine vs brute force ---

TEST(EngineTest, TopKMatchesBruteForceForEveryUser) {
  const data::Dataset dataset = SmallDataset();
  auto model = TrainedModel(dataset);
  auto snapshot = std::make_shared<const Snapshot>(
      BuildSnapshot(model.get(), dataset));

  EngineOptions options;
  options.num_threads = 4;
  Engine engine(snapshot, options);

  const auto seen = dataset.BuildTrainPositives();
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    const auto expected = BruteForceTopK(
        model.get(), dataset, seen[static_cast<size_t>(user)], user, 10);
    const auto actual = TopKItems(&engine, user, 10);
    ASSERT_EQ(actual, expected) << "user " << user;
  }
}

TEST(EngineTest, HandleBatchMatchesSingleCalls) {
  const data::Dataset dataset = SmallDataset();
  auto model = TrainedModel(dataset);
  auto snapshot = std::make_shared<const Snapshot>(
      BuildSnapshot(model.get(), dataset));

  EngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 0;  // exercise the uncached path
  Engine engine(snapshot, options);

  std::vector<Request> requests(static_cast<size_t>(dataset.num_users));
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    requests[static_cast<size_t>(user)].user = user;
    requests[static_cast<size_t>(user)].k = 1 + user % 13;
  }
  const std::vector<Response> batched = engine.HandleBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    ASSERT_TRUE(batched[r].ok()) << "request " << r;
    EXPECT_EQ(batched[r].items,
              TopKItems(&engine, requests[r].user, requests[r].k))
        << "request " << r;
  }
}

TEST(EngineTest, FilterSeenExcludesTrainItems) {
  const data::Dataset dataset = SmallDataset();
  auto model = TrainedModel(dataset);
  auto snapshot = std::make_shared<const Snapshot>(
      BuildSnapshot(model.get(), dataset));
  Engine engine(snapshot, EngineOptions{});

  const auto seen = dataset.BuildTrainPositives();
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    const auto& user_seen = seen[static_cast<size_t>(user)];
    for (const ScoredItem& rec : TopKItems(&engine, user, dataset.num_items)) {
      EXPECT_FALSE(std::binary_search(user_seen.begin(), user_seen.end(),
                                      rec.item))
          << "user " << user << " got seen item " << rec.item;
    }
  }
}

TEST(EngineTest, ShortCandidateListsReturnFewerThanK) {
  Snapshot snapshot;
  snapshot.model_name = "m";
  snapshot.dataset_name = "d";
  snapshot.num_users = 1;
  snapshot.num_items = 5;
  snapshot.scores = {5.0f, 4.0f, 3.0f, 2.0f, 1.0f};
  snapshot.seen = {{0, 3}};
  Engine engine(std::make_shared<const Snapshot>(std::move(snapshot)),
                EngineOptions{});
  const auto result = TopKItems(&engine, 0, 10);
  const std::vector<ScoredItem> expected = {{1, 4.0f}, {2, 3.0f}, {4, 1.0f}};
  EXPECT_EQ(result, expected);
}

/// `items` as (item, score bits) pairs, so lists holding NaN or -0 compare
/// bit for bit.
std::vector<std::pair<int64_t, uint32_t>> Bits(
    const std::vector<ScoredItem>& items) {
  std::vector<std::pair<int64_t, uint32_t>> bits;
  for (const ScoredItem& entry : items) {
    uint32_t word = 0;
    std::memcpy(&word, &entry.score, sizeof(word));
    bits.emplace_back(entry.item, word);
  }
  return bits;
}

/// Full-sort reference for one request against a snapshot row.
std::vector<ScoredItem> ReferenceTopK(const Snapshot& snapshot, int64_t user,
                                      int64_t k) {
  const auto& seen = snapshot.seen[static_cast<size_t>(user)];
  std::vector<ScoredItem> ranked;
  for (int64_t item = 0; item < snapshot.num_items; ++item) {
    if (std::binary_search(seen.begin(), seen.end(), item)) continue;
    ranked.push_back({item, snapshot.UserScores(user)[item]});
  }
  FullSortTopK(&ranked, k);
  return ranked;
}

/// `num_users` x `num_items` scores from `draw`. The seen lists cycle
/// through four shapes: both ends of the catalog, each id twice; random ids
/// with repeats; none (the full-row scan); every item.
template <typename Draw>
Snapshot RandomSnapshot(int64_t num_users, int64_t num_items, uint64_t seed,
                        Draw draw) {
  Rng rng(seed);
  Snapshot snapshot;
  snapshot.model_name = "random";
  snapshot.dataset_name = "random";
  snapshot.num_users = num_users;
  snapshot.num_items = num_items;
  snapshot.scores.resize(static_cast<size_t>(num_users * num_items));
  for (float& score : snapshot.scores) score = draw(&rng);
  snapshot.seen.resize(static_cast<size_t>(num_users));
  if (num_items == 0) return snapshot;
  for (int64_t user = 0; user < num_users; ++user) {
    auto& seen = snapshot.seen[static_cast<size_t>(user)];
    switch (user % 4) {
      case 0:
        seen = {0, 0, num_items - 1, num_items - 1};
        break;
      case 1:
        for (int64_t i = rng.UniformRange(0, 40); i > 0; --i) {
          seen.push_back(static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(num_items))));
        }
        std::sort(seen.begin(), seen.end());
        break;
      case 2:
        break;
      case 3:
        for (int64_t item = 0; item < num_items; ++item) seen.push_back(item);
        break;
    }
  }
  return snapshot;
}

/// Serves every (user, k) request at 1 and 4 lanes through Handle and
/// HandleBatch on an uncached engine and twice through Handle on a cached
/// one (the second call a cache hit). Each response must equal the
/// full-sort reference bit for bit; k <= 0 must be refused.
void ExpectEngineMatchesReference(const Snapshot& snapshot,
                                  const std::set<int64_t>& ks) {
  const auto shared = std::make_shared<const Snapshot>(snapshot);
  std::vector<Request> requests;
  for (int64_t user = 0; user < snapshot.num_users; ++user) {
    for (const int64_t k : ks) {
      Request request;
      request.user = user;
      request.k = k;
      requests.push_back(request);
    }
  }
  for (const int64_t lanes : {1, 4}) {
    EngineOptions options;
    options.num_threads = lanes;
    options.cache_capacity = 0;
    Engine uncached(shared, options);
    // Every shard can hold every request, so none evicts.
    options.cache_capacity =
        Engine::kCacheShards * static_cast<int64_t>(requests.size());
    Engine cached(shared, options);
    const std::vector<Response> batched = uncached.HandleBatch(requests);
    ASSERT_EQ(batched.size(), requests.size());
    int64_t valid = 0;
    for (size_t r = 0; r < requests.size(); ++r) {
      const Request& request = requests[r];
      SCOPED_TRACE(::testing::Message()
                   << "n " << snapshot.num_items << " user " << request.user
                   << " k " << request.k << " lanes " << lanes);
      if (request.k <= 0) {
        EXPECT_EQ(uncached.Handle(request).status,
                  ResponseStatus::kInvalidArgument);
        EXPECT_EQ(batched[r].status, ResponseStatus::kInvalidArgument);
        continue;
      }
      ++valid;
      const auto expected =
          Bits(ReferenceTopK(snapshot, request.user, request.k));
      const Response single = uncached.Handle(request);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(Bits(single.items), expected) << "Handle";
      ASSERT_TRUE(batched[r].ok());
      EXPECT_EQ(Bits(batched[r].items), expected) << "HandleBatch";
      for (const char* call : {"cache miss", "cache hit"}) {
        const Response response = cached.Handle(request);
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(Bits(response.items), expected) << call;
      }
    }
    EXPECT_EQ(cached.stats().cache_hits, valid);
    EXPECT_EQ(cached.stats().cache_misses, valid);
  }
}

TEST(EngineTest, MatchesFullSortReferenceWithManyTies) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{3360}}) {
    const Snapshot snapshot = RandomSnapshot(
        /*num_users=*/8, n, /*seed=*/100 + static_cast<uint64_t>(n),
        [](Rng* rng) {
          return std::array<float, 3>{-1.0f, 0.25f, 2.0f}[rng->UniformInt(3)];
        });
    ExpectEngineMatchesReference(snapshot, {1, 20, n - 1, n, n + 5, kMax});
  }
}

// Regression test: the engine's order compared `a.score > b.score`
// whenever two scores differed, which NaN always does, so NaN ranked
// neither before nor after any score. That is not a strict weak ordering,
// and a NaN in a row made the top-k depend on where the engine's blocks
// began. Under eval::RanksBefore NaN ranks after every number, and every
// path agrees with a full sort.
TEST(EngineTest, NanInfAndSignedZeroRankUnderTheTotalOrder) {
  const std::array<float, 5> special = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), 0.0f, -0.0f};
  Snapshot snapshot = RandomSnapshot(
      /*num_users=*/200, /*num_items=*/40, /*seed=*/2024, [&](Rng* rng) {
        return rng->Bernoulli(0.3) ? special[rng->UniformInt(special.size())]
                                   : rng->Normal();
      });
  // User 0's row is all NaN and user 2's all -0.
  const auto row = [&](int64_t user) {
    return snapshot.scores.begin() + user * snapshot.num_items;
  };
  std::fill(row(0), row(1), special[0]);
  std::fill(row(2), row(3), -0.0f);
  ExpectEngineMatchesReference(snapshot, {1, 3, 5, 20, 39, 40, 45});
}

// --- LRU cache ---

TEST(LruCacheTest, EvictsLeastRecentlyUsedInOrder) {
  ShardedLruCache<int, int> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));  // promotes 1 over 2
  cache.Put(3, 30);                   // evicts 2
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2);
}

TEST(LruCacheTest, PutOverwritesAndPromotes) {
  ShardedLruCache<int, int> cache(2, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // overwrite, no eviction, 1 becomes MRU
  EXPECT_EQ(cache.evictions(), 0);
  cache.Put(3, 30);  // evicts 2 (LRU), not 1
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 11);
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCacheTest, ClearDropsEverything) {
  ShardedLruCache<int, int> cache(8, 4);
  for (int i = 0; i < 8; ++i) cache.Put(i, i);
  EXPECT_GT(cache.size(), 0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(cache.Contains(i));
}

TEST(EngineTest, CacheHitsAndInvalidationOnReload) {
  Snapshot first;
  first.model_name = "m";
  first.dataset_name = "d";
  first.num_users = 2;
  first.num_items = 3;
  first.scores = {1.0f, 2.0f, 3.0f, 3.0f, 2.0f, 1.0f};
  first.seen = {{}, {}};

  EngineOptions options;
  options.cache_capacity = 16;
  Engine engine(std::make_shared<const Snapshot>(first), options);

  const auto before = TopKItems(&engine, 0, 2);
  EXPECT_EQ(before.front().item, 2);
  EXPECT_EQ(TopKItems(&engine, 0, 2), before);  // served from cache
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);

  // Reload with inverted scores for user 0: the cached list must not
  // survive.
  Snapshot second = first;
  second.scores = {3.0f, 2.0f, 1.0f, 3.0f, 2.0f, 1.0f};
  engine.ReloadSnapshot(std::make_shared<const Snapshot>(second));
  const auto after = TopKItems(&engine, 0, 2);
  EXPECT_EQ(after.front().item, 0);
  stats = engine.stats();
  EXPECT_EQ(stats.snapshot_reloads, 1);
  EXPECT_EQ(stats.cache_misses, 2);  // post-reload query recomputed
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(EngineTest, ReloadFromDirServesNewestValidSnapshot) {
  const std::string dir = ::testing::TempDir() + "/serve-reload-dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto publish = [&](const std::string& file, const std::string& tag) {
    Snapshot snapshot = TinySnapshot();
    snapshot.model_name = tag;
    ASSERT_TRUE(SaveSnapshot(snapshot, dir + "/" + file).ok()) << file;
  };
  publish("snap-001.snap", "first");
  publish("snap-002.snap", "second");
  // The newest file is corrupt (torn write): it must be skipped with a
  // warning, falling back to snap-002.
  {
    std::ofstream out(dir + "/snap-003.snap", std::ios::binary);
    out << "torn write, not a valid frame";
  }

  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()),
                EngineOptions{});
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  EXPECT_EQ(engine.snapshot()->model_name, "second");
  EXPECT_EQ(engine.stats().snapshot_reloads, 1);

  // Steady-state watch: nothing newer and valid, so no reload happens.
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  EXPECT_EQ(engine.stats().snapshot_reloads, 1);

  // A newer valid snapshot appears: picked up on the next poll.
  publish("snap-004.snap", "fourth");
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  EXPECT_EQ(engine.snapshot()->model_name, "fourth");
  EXPECT_EQ(engine.stats().snapshot_reloads, 2);
}

TEST(EngineTest, ReloadFromDirReportsNotFoundWhenNothingValidates) {
  const std::string dir = ::testing::TempDir() + "/serve-reload-empty";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()),
                EngineOptions{});
  // Empty directory, then only-corrupt directory, then a missing one: the
  // engine keeps serving its current snapshot through all three.
  EXPECT_EQ(engine.ReloadFromDir(dir).code(), StatusCode::kNotFound);
  {
    std::ofstream out(dir + "/only.snap", std::ios::binary);
    out << "garbage";
  }
  EXPECT_EQ(engine.ReloadFromDir(dir).code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.ReloadFromDir(dir + "/missing").ok());
  EXPECT_EQ(engine.stats().snapshot_reloads, 0);
  EXPECT_EQ(engine.snapshot()->model_name, "tiny-model");
}

TEST(EngineTest, StatsTableRendersCounters) {
  Snapshot snapshot;
  snapshot.model_name = "m";
  snapshot.dataset_name = "d";
  snapshot.num_users = 1;
  snapshot.num_items = 2;
  snapshot.scores = {1.0f, 2.0f};
  snapshot.seen = {{}};
  Engine engine(std::make_shared<const Snapshot>(std::move(snapshot)),
                EngineOptions{});
  TopKItems(&engine, 0, 1);
  const std::string table = engine.stats().ToTable();
  EXPECT_NE(table.find("requests"), std::string::npos);
  EXPECT_NE(table.find("p99 latency"), std::string::npos);
}

// --- Delta snapshots ---

/// TinySnapshot with user 1's score row and seen list replaced.
Snapshot TinySnapshotV2() {
  Snapshot next = TinySnapshot();
  next.scores[3] = -1.5f;
  next.scores[4] = 9.25f;
  next.scores[5] = 0.125f;
  next.seen[1] = {0};
  return next;
}

TEST(DeltaTest, BuildDeltaListsOnlyChangedUsers) {
  const Snapshot base = TinySnapshot();
  const Snapshot target = TinySnapshotV2();
  Result<SnapshotDelta> delta = BuildDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta.value().rows.size(), 1u);
  EXPECT_EQ(delta.value().rows[0].user, 1);
  EXPECT_EQ(delta.value().rows[0].seen, target.seen[1]);
  // Identical snapshots diff to an empty delta.
  Result<SnapshotDelta> empty = BuildDelta(base, base);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().rows.empty());
}

TEST(DeltaTest, ApplyDeltaIsBitExactWithFullRebuild) {
  const Snapshot base = TinySnapshot();
  const Snapshot target = TinySnapshotV2();
  Result<SnapshotDelta> delta = BuildDelta(base, target);
  ASSERT_TRUE(delta.ok());
  Result<PatchedSnapshot> applied =
      ApplyDelta(base, DigestSnapshot(base), delta.value());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Snapshot& patched = applied.value().snapshot;
  ASSERT_EQ(patched.scores.size(), target.scores.size());
  for (size_t i = 0; i < target.scores.size(); ++i) {
    EXPECT_EQ(patched.scores[i], target.scores[i]) << "score " << i;
  }
  EXPECT_EQ(patched.seen, target.seen);
  EXPECT_EQ(SnapshotFingerprint(patched), SnapshotFingerprint(target));
  // The patched digest is the target's, computed from scratch.
  const SnapshotDigest expected = DigestSnapshot(target);
  EXPECT_EQ(applied.value().digest.score_crcs, expected.score_crcs);
  EXPECT_EQ(applied.value().digest.seen_crcs, expected.seen_crcs);
}

TEST(DeltaTest, ApplyDeltaRejectsMismatchedBase) {
  const Snapshot base = TinySnapshot();
  const Snapshot target = TinySnapshotV2();
  Result<SnapshotDelta> delta = BuildDelta(base, target);
  ASSERT_TRUE(delta.ok());
  // Applying to the wrong base (the target itself) must be refused: the
  // delta pins its base by fingerprint.
  EXPECT_EQ(
      ApplyDelta(target, DigestSnapshot(target), delta.value()).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DeltaTest, BuildDeltaRejectsDimensionChanges) {
  const Snapshot base = TinySnapshot();
  Snapshot resized = TinySnapshot();
  resized.num_users = 3;
  resized.scores.resize(9, 0.0f);
  resized.seen.resize(3);
  EXPECT_EQ(BuildDelta(base, resized).status().code(),
            StatusCode::kInvalidArgument);
  // A snapshot whose vectors disagree with its own dimensions is refused
  // on either side, as Engine::Create refuses it.
  Snapshot short_scores = TinySnapshot();
  short_scores.scores.pop_back();
  Snapshot short_seen = TinySnapshot();
  short_seen.seen.pop_back();
  for (const Snapshot* inconsistent : {&short_scores, &short_seen}) {
    EXPECT_EQ(BuildDelta(base, *inconsistent).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildDelta(*inconsistent, base).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DeltaTest, ApplyDeltaRejectsTamperedRow) {
  const Snapshot base = TinySnapshot();
  Result<SnapshotDelta> built = BuildDelta(base, TinySnapshotV2());
  ASSERT_TRUE(built.ok());
  SnapshotDelta tampered = built.value();
  ASSERT_EQ(tampered.rows.size(), 1u);
  // Flip the lowest bit of one score: the base still matches, so only the
  // check of the output against the recorded target can catch it.
  float* score = &tampered.rows[0].scores[1];
  uint32_t bits = 0;
  std::memcpy(&bits, score, sizeof(bits));
  bits ^= 1u;
  std::memcpy(score, &bits, sizeof(bits));
  EXPECT_EQ(ApplyDelta(base, DigestSnapshot(base), tampered).status().code(),
            StatusCode::kInternal);

  EngineOptions options;
  options.cache_capacity = 0;  // every query reads the served rows
  Engine engine(std::make_shared<const Snapshot>(base), options);
  const auto user1_before = TopKItems(&engine, 1, 3);
  EXPECT_EQ(engine.ApplyDeltaSnapshot(tampered).code(),
            StatusCode::kInternal);
  EXPECT_EQ(engine.generation(), 0u);
  EXPECT_EQ(SnapshotFingerprint(*engine.snapshot()),
            SnapshotFingerprint(base));
  EXPECT_EQ(TopKItems(&engine, 1, 3), user1_before);
}

/// One engine chains seeded random deltas of every shape; after each, the
/// from-scratch fingerprint of the served snapshot is the delta's target.
TEST(DeltaTest, ChainedRandomDeltasReachEveryTarget) {
  constexpr int64_t kUsers = 12;
  constexpr int64_t kItems = 37;  // 148-byte rows: not a multiple of 8
  Rng rng(4242);
  Snapshot current;
  current.model_name = "chain";
  current.dataset_name = "random";
  current.num_users = kUsers;
  current.num_items = kItems;
  current.scores.resize(static_cast<size_t>(kUsers * kItems));
  for (float& score : current.scores) score = rng.Normal();
  current.seen.resize(static_cast<size_t>(kUsers));
  for (auto& seen : current.seen) {
    seen = rng.SampleWithoutReplacement(kItems, rng.UniformRange(0, 6));
    std::sort(seen.begin(), seen.end());
  }
  const auto rescore = [&](Snapshot* next, int64_t user) {
    float* row = next->scores.data() + user * kItems;
    for (int64_t item = 0; item < kItems; ++item) row[item] = rng.Normal();
  };
  const auto reseen = [&](Snapshot* next, int64_t user) {
    auto& seen = next->seen[static_cast<size_t>(user)];
    seen = rng.SampleWithoutReplacement(kItems, rng.UniformRange(1, 8));
    std::sort(seen.begin(), seen.end());
  };
  enum class Shape { kScoresOnly, kSeenOnly, kEmpty, kAllRows, kMixed };
  const std::vector<Shape> shapes = {Shape::kScoresOnly, Shape::kSeenOnly,
                                     Shape::kEmpty,      Shape::kAllRows,
                                     Shape::kMixed,      Shape::kScoresOnly,
                                     Shape::kMixed};

  Engine engine(std::make_shared<const Snapshot>(current), EngineOptions{});
  uint64_t generation = engine.generation();
  for (size_t step = 0; step < shapes.size(); ++step) {
    Snapshot next = current;
    const std::vector<int64_t> users =
        rng.SampleWithoutReplacement(kUsers, 3);
    switch (shapes[step]) {
      case Shape::kScoresOnly:
        for (int64_t user : users) rescore(&next, user);
        break;
      case Shape::kSeenOnly:
        for (int64_t user : users) reseen(&next, user);
        break;
      case Shape::kEmpty:
        break;
      case Shape::kAllRows:
        for (int64_t user = 0; user < kUsers; ++user) rescore(&next, user);
        break;
      case Shape::kMixed:
        rescore(&next, users[0]);
        reseen(&next, users[1]);
        rescore(&next, users[2]);
        reseen(&next, users[2]);
        break;
    }
    Result<SnapshotDelta> delta = BuildDelta(current, next);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    if (shapes[step] == Shape::kEmpty) {
      EXPECT_TRUE(delta.value().rows.empty());
    }
    if (shapes[step] == Shape::kAllRows) {
      EXPECT_EQ(delta.value().rows.size(), static_cast<size_t>(kUsers));
    }
    ASSERT_TRUE(engine.ApplyDeltaSnapshot(delta.value()).ok())
        << "step " << step;
    EXPECT_EQ(engine.generation(), ++generation);
    const std::shared_ptr<const Snapshot> served = engine.snapshot();
    EXPECT_EQ(SnapshotFingerprint(*served), delta.value().target_fingerprint)
        << "step " << step;
    EXPECT_EQ(SnapshotFingerprint(next), delta.value().target_fingerprint);
    EXPECT_EQ(std::memcmp(served->scores.data(), next.scores.data(),
                          next.scores.size() * sizeof(float)),
              0);
    EXPECT_EQ(served->seen, next.seen);
    current = std::move(next);
  }
}

/// `name` from the registry with small hyper-parameters, trained for two
/// epochs on `dataset` (null if Fit fails).
std::unique_ptr<models::RecommenderModel> ZooModel(
    const std::string& name, const data::Dataset& dataset) {
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  auto model = models::CreateModel(name, hparams);
  models::TrainOptions options;
  options.max_epochs = 2;
  options.patience = 100;
  options.seed = 7;
  const Status status = model->Fit(dataset, options);
  EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  return status.ok() ? std::move(model) : nullptr;
}

/// Every registry model scores as a pure function of the model and the
/// ScorePairs call: rebuilding a snapshot from one trained model gives the
/// same bits, so the delta between the two builds is empty. The build is
/// also pinned to a fingerprint per model, so a change to the shared model
/// plumbing cannot move a score.
class RebuildSnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RebuildSnapshotTest, RebuildIsBitIdenticalAndDeltaIsEmpty) {
  const std::map<std::string, uint64_t> kFingerprints = {
      {"BPRMF", 12213020103869037005ULL},
      {"NFM", 4779322085844551589ULL},
      {"CKE", 15919944379915675140ULL},
      {"RippleNet", 17150954979717048062ULL},
      {"KGNN-LS", 17233643873166515280ULL},
      {"KGCN", 3072268724098493508ULL},
      {"KGAT", 400770404271847471ULL},
      {"CKAN", 14799732899830912919ULL},
      {"CG-KGR", 6065106209062881786ULL}};
  const data::Dataset dataset = SmallDataset();
  auto model = ZooModel(GetParam(), dataset);
  ASSERT_NE(model, nullptr);
  const Snapshot first = BuildSnapshot(model.get(), dataset);
  const Snapshot second = BuildSnapshot(model.get(), dataset);
  ASSERT_EQ(first.scores.size(), second.scores.size());
  int64_t changed = 0;
  for (size_t i = 0; i < first.scores.size(); ++i) {
    if (first.scores[i] != second.scores[i]) ++changed;
  }
  EXPECT_EQ(changed, 0) << GetParam();
  EXPECT_EQ(SnapshotFingerprint(first), SnapshotFingerprint(second));
  EXPECT_EQ(SnapshotFingerprint(first), kFingerprints.at(GetParam()));
  Result<SnapshotDelta> delta = BuildDelta(first, second);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta.value().rows.empty())
      << GetParam() << ": " << delta.value().rows.size() << " users changed";
}

INSTANTIATE_TEST_SUITE_P(AllModels, RebuildSnapshotTest,
                         ::testing::ValuesIn(models::AllModelNames()));

TEST(DeltaTest, SaveLoadRoundTripAndCorruptionRejection) {
  const Snapshot base = TinySnapshot();
  const Snapshot target = TinySnapshotV2();
  Result<SnapshotDelta> delta = BuildDelta(base, target);
  ASSERT_TRUE(delta.ok());
  const std::string path = "/tmp/cgkgr_serve_test.delta";
  ASSERT_TRUE(SaveDelta(delta.value(), path).ok());

  Result<SnapshotDelta> loaded = LoadDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().base_fingerprint,
            delta.value().base_fingerprint);
  EXPECT_EQ(loaded.value().target_fingerprint,
            delta.value().target_fingerprint);
  ASSERT_EQ(loaded.value().rows.size(), delta.value().rows.size());
  EXPECT_EQ(loaded.value().rows[0].user, delta.value().rows[0].user);
  EXPECT_EQ(loaded.value().rows[0].scores, delta.value().rows[0].scores);
  // The loaded delta still applies bit-exactly.
  Result<PatchedSnapshot> patched =
      ApplyDelta(base, DigestSnapshot(base), loaded.value());
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(SnapshotFingerprint(patched.value().snapshot),
            SnapshotFingerprint(target));

  // Byte-chopped at every length (and with trailing garbage): always a
  // Status, never a crash.
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 0u);
  const std::string chopped_path = path + ".chopped";
  for (size_t length = 0; length < image.size(); ++length) {
    std::ofstream out(chopped_path, std::ios::binary | std::ios::trunc);
    out << image.substr(0, length);
    out.close();
    EXPECT_FALSE(LoadDelta(chopped_path).ok())
        << "chopped to " << length << " of " << image.size() << " bytes";
  }
  {
    std::ofstream out(chopped_path, std::ios::binary | std::ios::trunc);
    out << image << "extra";
  }
  EXPECT_FALSE(LoadDelta(chopped_path).ok());
}

TEST(DeltaTest, LoadDeltaRejectsOutOfOrderSeenList) {
  Snapshot target = TinySnapshotV2();
  target.seen[1] = {2, 0};
  Result<SnapshotDelta> delta = BuildDelta(TinySnapshot(), target);
  ASSERT_TRUE(delta.ok());
  const std::string path = "/tmp/cgkgr_serve_test_unsorted.delta";
  ASSERT_TRUE(SaveDelta(delta.value(), path).ok());
  EXPECT_EQ(LoadDelta(path).status().code(), StatusCode::kInvalidArgument);

  // Repeated ids stay legal.
  target.seen[1] = {0, 0, 2};
  delta = BuildDelta(TinySnapshot(), target);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(SaveDelta(delta.value(), path).ok());
  Result<SnapshotDelta> loaded = LoadDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows[0].seen, target.seen[1]);
}

// --- Request API ---

TEST(EngineTest, CreateValidatesSnapshotAndOptions) {
  EXPECT_FALSE(Engine::Create(nullptr, EngineOptions{}).ok());

  auto inconsistent = std::make_shared<const Snapshot>([] {
    Snapshot snapshot = TinySnapshot();
    snapshot.scores.pop_back();  // scores no longer num_users x num_items
    return snapshot;
  }());
  EXPECT_FALSE(Engine::Create(inconsistent, EngineOptions{}).ok());

  auto good = std::make_shared<const Snapshot>(TinySnapshot());
  EngineOptions bad;
  bad.num_threads = 0;
  EXPECT_FALSE(Engine::Create(good, bad).ok());
  bad = EngineOptions{};
  bad.cache_capacity = -1;
  EXPECT_FALSE(Engine::Create(good, bad).ok());

  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(good, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Request request;
  request.user = 0;
  request.k = 2;
  EXPECT_TRUE(engine.value()->Handle(request).ok());
}

TEST(EngineTest, HandleReportsInvalidArgumentsAsResponses) {
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()),
                EngineOptions{});
  for (const auto& [user, k] : std::vector<std::pair<int64_t, int64_t>>{
           {-1, 2}, {2, 2}, {0, 0}, {0, -3}}) {
    Request request;
    request.user = user;
    request.k = k;
    const Response response = engine.Handle(request);
    EXPECT_EQ(response.status, ResponseStatus::kInvalidArgument)
        << "user " << user << " k " << k;
    EXPECT_FALSE(response.ok());
    EXPECT_TRUE(response.items.empty());
  }
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kInvalidArgument),
               "invalid_argument");
  // Bad requests never count as served traffic.
  EXPECT_EQ(engine.stats().requests, 0);
}

// Regression test for the duplicate-requests bug: the same (user, k) twice
// in one batch used to be scored twice. Now the engine computes the
// distinct set once and fans the results back out — serve_computes_total
// counts actual scoring calls, so the assertion is exact.
TEST(EngineTest, HandleBatchCoalescesDuplicates) {
  EngineOptions options;
  options.cache_capacity = 0;  // every non-coalesced request would compute
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()), options);

  std::vector<Request> batch(6);
  batch[0].user = 0;
  batch[0].k = 2;
  batch[1].user = 1;
  batch[1].k = 2;
  batch[2] = batch[0];  // duplicate of 0
  batch[3].user = 1;
  batch[3].k = 3;  // same user, different k: distinct
  batch[4] = batch[1];  // duplicate of 1
  batch[5] = batch[0];  // duplicate of 0
  const std::vector<Response> responses = engine.HandleBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << "request " << i;
    Request single = batch[i];
    EXPECT_EQ(responses[i].items, engine.Handle(single).items)
        << "request " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_coalesced, 3);  // three duplicates folded
  // 6 batch entries + 6 verification Handle calls counted as requests, but
  // the batch computed only its 3 distinct entries.
  EXPECT_EQ(stats.requests, 12);
  EXPECT_EQ(stats.computes, 9);
}

// Regression test: a refused request counts nowhere through Handle, yet in
// a batch each duplicate of it bumped serve_requests_total and
// serve_batch_coalesced_total. A duplicate now counts only when its
// primary was served.
TEST(EngineTest, HandleBatchCountsNoDuplicateOfARefusedRequest) {
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()),
                EngineOptions{});
  Request good;
  good.user = 0;
  good.k = 2;
  Request bad;
  bad.user = 7;  // out of range
  bad.k = 2;
  const std::vector<Response> responses =
      engine.HandleBatch({good, good, bad, bad});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].items, responses[0].items);
  EXPECT_EQ(responses[2].status, ResponseStatus::kInvalidArgument);
  EXPECT_EQ(responses[3].status, ResponseStatus::kInvalidArgument);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.batch_coalesced, 1);
  EXPECT_EQ(stats.computes, 1);
}

TEST(EngineTest, GenerationIsMonotonicAcrossReloadKinds) {
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()),
                EngineOptions{});
  EXPECT_EQ(engine.generation(), 0u);
  Request request;
  request.user = 0;
  request.k = 1;
  EXPECT_EQ(engine.Handle(request).generation, 0u);

  engine.ReloadSnapshot(std::make_shared<const Snapshot>(TinySnapshot()));
  EXPECT_EQ(engine.generation(), 1u);

  Result<SnapshotDelta> delta =
      BuildDelta(TinySnapshot(), TinySnapshotV2());
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(engine.ApplyDeltaSnapshot(delta.value()).ok());
  EXPECT_EQ(engine.generation(), 2u);
  EXPECT_EQ(engine.Handle(request).generation, 2u);
}

TEST(EngineTest, ApplyDeltaSnapshotInvalidatesOnlyTouchedRows) {
  EngineOptions options;
  options.cache_capacity = 16;
  Engine engine(std::make_shared<const Snapshot>(TinySnapshot()), options);

  // Warm both users' cache entries.
  const auto user0_before = TopKItems(&engine, 0, 2);
  const auto user1_before = TopKItems(&engine, 1, 2);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, 0);

  // The delta touches only user 1.
  Result<SnapshotDelta> delta =
      BuildDelta(TinySnapshot(), TinySnapshotV2());
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(engine.ApplyDeltaSnapshot(delta.value()).ok());

  // User 0: row unchanged, cached list survives the reload.
  EXPECT_EQ(TopKItems(&engine, 0, 2), user0_before);
  stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);

  // User 1: row patched, the cached list is unreachable and the fresh
  // compute reflects the new scores (9.25 on item 1 now wins).
  const auto user1_after = TopKItems(&engine, 1, 2);
  EXPECT_NE(user1_after, user1_before);
  EXPECT_EQ(user1_after.front().item, 1);
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.snapshot_delta_reloads, 1);
  EXPECT_EQ(stats.snapshot_reloads, 0);

  // A stale delta (built against the base we no longer serve) is refused
  // and the engine keeps serving.
  EXPECT_FALSE(engine.ApplyDeltaSnapshot(delta.value()).ok());
  EXPECT_EQ(TopKItems(&engine, 1, 2), user1_after);
}

TEST(EngineTest, ReloadFromDirAppliesMixedSnapshotAndDeltaTimeline) {
  const std::string dir = ::testing::TempDir() + "/serve-delta-dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const Snapshot base = TinySnapshot();
  const Snapshot target = TinySnapshotV2();
  ASSERT_TRUE(SaveSnapshot(base, dir + "/snap-000001.snap").ok());
  Result<SnapshotDelta> delta = BuildDelta(base, target);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(SaveDelta(delta.value(), dir + "/snap-000002.delta").ok());

  // Cold start: the back-walk installs snap-000001, then chains the delta.
  Engine engine(std::make_shared<const Snapshot>(base), EngineOptions{});
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.snapshot_reloads, 1);
  EXPECT_EQ(stats.snapshot_delta_reloads, 1);
  // The served bits equal a full rebuild of the target.
  EXPECT_EQ(SnapshotFingerprint(*engine.snapshot()),
            SnapshotFingerprint(target));

  // Steady state: nothing new, nothing reapplied.
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  stats = engine.stats();
  EXPECT_EQ(stats.snapshot_reloads, 1);
  EXPECT_EQ(stats.snapshot_delta_reloads, 1);

  // A later full snapshot installs; a delta chained on it applies too.
  ASSERT_TRUE(SaveSnapshot(base, dir + "/snap-000003.snap").ok());
  ASSERT_TRUE(SaveDelta(delta.value(), dir + "/snap-000004.delta").ok());
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  stats = engine.stats();
  EXPECT_EQ(stats.snapshot_reloads, 2);
  EXPECT_EQ(stats.snapshot_delta_reloads, 2);
  EXPECT_EQ(SnapshotFingerprint(*engine.snapshot()),
            SnapshotFingerprint(target));

  // An inapplicable delta (diffed against bits we are not serving) is
  // skipped with the engine still serving and the poll still OK.
  Result<SnapshotDelta> stale = BuildDelta(base, target);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(SaveDelta(stale.value(), dir + "/snap-000005.delta").ok());
  ASSERT_TRUE(engine.ReloadFromDir(dir).ok());
  EXPECT_EQ(engine.stats().snapshot_delta_reloads, 2);
  EXPECT_EQ(SnapshotFingerprint(*engine.snapshot()),
            SnapshotFingerprint(target));
}

// --- One scoring path for evaluation and serving ---

/// Serves pair scores from a snapshot's rows.
class SnapshotScorer : public eval::PairScorer {
 public:
  explicit SnapshotScorer(const Snapshot& snapshot) : snapshot_(snapshot) {}

  void ScorePairs(const std::vector<int64_t>& users,
                  const std::vector<int64_t>& items,
                  std::vector<float>* out) override {
    out->resize(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      (*out)[i] = snapshot_.UserScores(users[i])[items[i]];
    }
  }

 private:
  const Snapshot& snapshot_;
};

/// For the models whose score is a pure function of (model, user, item),
/// ranking through the model equals ranking the rows of its snapshot: both
/// go through eval::RowScorer, and EvaluateTopK breaks ties like the
/// engine.
class TopKFromSnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TopKFromSnapshotTest, EvaluateTopKOnModelEqualsSnapshotRows) {
  const data::Dataset dataset = SmallDataset();
  auto model = ZooModel(GetParam(), dataset);
  ASSERT_NE(model, nullptr);
  const Snapshot snapshot = BuildSnapshot(model.get(), dataset);
  SnapshotScorer rows(snapshot);
  const auto mask = dataset.BuildTrainPositives();
  eval::TopKOptions options;
  options.ks = {1, 5, 10, 20};
  const eval::TopKResult a =
      eval::EvaluateTopK(model.get(), dataset, dataset.test, mask, options);
  const eval::TopKResult b =
      eval::EvaluateTopK(&rows, dataset, dataset.test, mask, options);

  EXPECT_GT(a.evaluated_users, 0);
  EXPECT_EQ(a.evaluated_users, b.evaluated_users);
  for (int64_t k : options.ks) {
    EXPECT_EQ(a.recall.at(k), b.recall.at(k)) << "recall@" << k;
    EXPECT_EQ(a.ndcg.at(k), b.ndcg.at(k)) << "ndcg@" << k;
    EXPECT_EQ(a.precision.at(k), b.precision.at(k)) << "precision@" << k;
    EXPECT_EQ(a.hit_rate.at(k), b.hit_rate.at(k)) << "hit@" << k;
  }
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.mrr, b.mrr);
}

INSTANTIATE_TEST_SUITE_P(PureScorers, TopKFromSnapshotTest,
                         ::testing::Values("BPRMF", "NFM", "CKE",
                                           "RippleNet"));

}  // namespace
}  // namespace serve
}  // namespace cgkgr
