// Striped LRU cache of fit results keyed by (series content hash, model
// family, fit options), so identical /v1/fit -- and /v1/forecast, /v1/metrics,
// which fit internally -- requests skip the multistart optimizer entirely.
//
// Keying: the series' time/value doubles are hashed bit-for-bit (word-wise
// FNV over mixed words, hash_series()), and the full key (hash + length +
// model name + holdout + loss kind/scale) is compared for equality on
// lookup. The key holds only a digest of the series, so the request path
// looks up with the series as well: a hit whose cached fit was made from
// other samples is counted and returned as a miss, and a 64-bit hash
// collision can at worst cause a spurious miss -- never a wrong hit.
//
// Sharding: the cache is striped into S independent LRU shards, each with its
// own mutex, order list, and hit/miss/eviction counters. The shard for a key
// is a mix of its series_hash (shard_index()), so concurrent requests for
// distinct series almost never contend on the same lock and the cache stops
// being a convoy point under load. Capacity is divided across shards (the
// first capacity % S shards get one extra slot); eviction is LRU *within a
// shard*, which approximates global LRU the way any striped cache does.
// shards == 1 recovers the exact single-list LRU semantics.
//
// Values are shared_ptr<const FitResult>: a hit hands out a reference to the
// immutable cached fit with no copying; eviction never invalidates a result a
// handler is still using. All operations are thread-safe.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fitting.hpp"
#include "data/time_series.hpp"

namespace prm::serve {

struct FitCacheKey {
  std::uint64_t series_hash = 0;  ///< hash_series(): raw bits of times and values.
  std::size_t series_length = 0;
  std::string model;
  std::size_t holdout = 0;
  int loss_kind = 0;
  double loss_scale = 0.0;

  bool operator==(const FitCacheKey&) const = default;
};

/// Build the cache key for a fit request. Ignores the series *name* (two
/// differently named uploads of the same data share a slot) and any
/// FitOptions fields that do not change the optimum deterministically
/// (weights and warm starts make a request uncacheable; see cacheable()).
FitCacheKey make_fit_cache_key(const data::PerformanceSeries& series,
                               const std::string& model, std::size_t holdout,
                               const core::FitOptions& options);

/// False when `options` carries state the key does not capture.
bool cacheable(const core::FitOptions& options);

/// Two-lane word-wise FNV over the mixed raw bits of the series' times and
/// values.
std::uint64_t hash_series(const data::PerformanceSeries& series);

/// Aggregated counters across every shard, snapshotted shard-by-shard (the
/// totals are each internally consistent but not a single atomic cut).
struct FitCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
};

class FitCache {
 public:
  /// capacity == 0 disables caching (every lookup misses, inserts drop).
  /// shards == 0 picks one shard per pool thread (par::TaskPool default);
  /// the count is always clamped to [1, max(capacity, 1)] so every shard
  /// holds at least one entry.
  explicit FitCache(std::size_t capacity, std::size_t shards = 1);

  /// nullptr on miss. A hit promotes the entry to most-recently-used within
  /// its shard. Given `series`, an entry whose fit was not made from exactly
  /// its times and values (raw bits) is a miss, so a digest collision never
  /// hands out another series' fit; without it the key, digest included, is
  /// trusted.
  std::shared_ptr<const core::FitResult> lookup(
      const FitCacheKey& key, const data::PerformanceSeries* series = nullptr);

  /// Insert (or refresh) an entry, evicting the shard's least-recently-used
  /// one when over that shard's capacity. Racing inserts of the same key keep
  /// the newest value.
  void insert(const FitCacheKey& key, std::shared_ptr<const core::FitResult> fit);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t shards() const noexcept { return shards_.size(); }

  /// All counters in one pass over the shards.
  FitCacheStats stats() const;

  /// Drop every entry; counters persist (they are lifetime totals).
  void clear();

  /// Which shard a key lands in for a cache with `shard_count` shards.
  /// Exposed so tests can construct shard-aliased key sets deliberately.
  static std::size_t shard_index(const FitCacheKey& key, std::size_t shard_count) noexcept;

 private:
  struct KeyHash {
    std::size_t operator()(const FitCacheKey& key) const noexcept;
  };
  struct Entry {
    FitCacheKey key;
    std::shared_ptr<const core::FitResult> fit;
  };
  using Order = std::list<Entry>;  ///< Front = most recently used.

  /// One independent LRU stripe. Never moved after construction (the vector
  /// is sized once in the constructor), so the mutex is safe to hold by
  /// reference.
  struct Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;
    Order order;
    std::unordered_map<FitCacheKey, Order::iterator, KeyHash> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const FitCacheKey& key) {
    return shards_[shard_index(key, shards_.size())];
  }

  std::size_t capacity_;
  std::vector<Shard> shards_;
};

}  // namespace prm::serve
