#ifndef CGKGR_SERVE_LRU_CACHE_H_
#define CGKGR_SERVE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace cgkgr {
namespace serve {

/// A thread-safe LRU cache sharded by key hash. Each shard holds its own
/// mutex, recency list, and index, so concurrent lookups for different keys
/// mostly touch disjoint locks. Eviction is per shard (capacity is divided
/// evenly across shards), which approximates global LRU the way most
/// production caches do (memcached, LevelDB block cache).
///
/// Values are returned by copy: entries can be evicted by another thread the
/// moment the shard lock is released, so references would dangle.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity` = total entries across shards (values < num_shards are
  /// raised so every shard can hold at least one entry). Use num_shards = 1
  /// for deterministic global LRU order (tests); the serving engine uses
  /// Engine::kCacheShards = 8 for lock spreading.
  ///
  /// Optional telemetry hooks (both may be null): `eviction_counter` is
  /// incremented per evicted entry, `size_gauge` tracks resident entries.
  /// Owners pass registry instruments so cache behavior shows up in
  /// MetricsRegistry::Dump() without the cache knowing its own name.
  explicit ShardedLruCache(int64_t capacity, int64_t num_shards = 8,
                           obs::Counter* eviction_counter = nullptr,
                           obs::Gauge* size_gauge = nullptr)
      : eviction_counter_(eviction_counter), size_gauge_(size_gauge) {
    CGKGR_CHECK(capacity > 0 && num_shards > 0);
    const int64_t per_shard = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(static_cast<size_t>(num_shards));
    for (int64_t s = 0; s < num_shards; ++s) {
      // Shard owns a mutex (immovable), so shards live behind unique_ptr.
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->capacity = per_shard;
    }
  }

  /// Copies the cached value for `key` into `*value` and promotes the entry
  /// to most-recently-used. Returns false on miss.
  bool Get(const Key& key, Value* value) {
    CGKGR_CHECK(value != nullptr);
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    *value = it->second->second;
    return true;
  }

  /// Inserts or overwrites `key`, evicting the shard's least-recently-used
  /// entry when full.
  void Put(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    if (static_cast<int64_t>(shard.order.size()) >= shard.capacity) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      ++shard.evictions;
      if (eviction_counter_ != nullptr) eviction_counter_->Increment();
      if (size_gauge_ != nullptr) size_gauge_->Add(-1.0);
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.order.begin());
    if (size_gauge_ != nullptr) size_gauge_->Add(1.0);
  }

  /// True when `key` is resident (no recency promotion; test helper).
  bool Contains(const Key& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    return shard.index.find(key) != shard.index.end();
  }

  /// Drops every entry in every shard (snapshot-reload invalidation).
  void Clear() {
    int64_t dropped = 0;
    for (auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      dropped += static_cast<int64_t>(shard->order.size());
      shard->order.clear();
      shard->index.clear();
    }
    if (size_gauge_ != nullptr) {
      size_gauge_->Add(-static_cast<double>(dropped));
    }
  }

  /// Resident entries across shards.
  int64_t size() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total += static_cast<int64_t>(shard->order.size());
    }
    return total;
  }

  /// Evictions across shards since construction (Clear does not count).
  int64_t evictions() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total += shard->evictions;
    }
    return total;
  }

 private:
  struct Shard {
    mutable Mutex mu;
    /// Immutable after ShardedLruCache construction; read without the lock.
    int64_t capacity = 0;
    int64_t evictions CGKGR_GUARDED_BY(mu) = 0;
    /// Front = most recently used.
    std::list<std::pair<Key, Value>> order CGKGR_GUARDED_BY(mu);
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hash>
        index CGKGR_GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[Hash()(key) % shards_.size()];
  }

  obs::Counter* const eviction_counter_;
  obs::Gauge* const size_gauge_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_LRU_CACHE_H_
