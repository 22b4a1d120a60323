// serve::FitCache: key construction (what participates, what is ignored),
// LRU eviction order with MRU promotion, hit/miss counters, the capacity-0
// kill switch, cacheability rules, and a concurrency smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/fitting.hpp"
#include "serve/fit_cache.hpp"

namespace {

using namespace prm;
using serve::FitCache;
using serve::FitCacheKey;

data::PerformanceSeries series_of(std::vector<double> values) {
  std::vector<double> times(values.size());
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = static_cast<double>(i);
  return data::PerformanceSeries("s", std::move(times), std::move(values));
}

std::shared_ptr<const core::FitResult> fake_fit(double marker) {
  auto fit = std::make_shared<core::FitResult>();
  fit->sse = marker;
  return fit;
}

TEST(FitCacheKey, IgnoresSeriesNameButNotData) {
  const core::FitOptions options;
  std::vector<double> times = {0, 1, 2, 3};
  const data::PerformanceSeries a("first upload", times, {1.0, 0.8, 0.7, 0.9});
  const data::PerformanceSeries b("second upload", times, {1.0, 0.8, 0.7, 0.9});
  const data::PerformanceSeries c("first upload", times, {1.0, 0.8, 0.7, 0.91});
  EXPECT_EQ(serve::make_fit_cache_key(a, "m", 1, options),
            serve::make_fit_cache_key(b, "m", 1, options));
  EXPECT_NE(serve::make_fit_cache_key(a, "m", 1, options),
            serve::make_fit_cache_key(c, "m", 1, options));
}

TEST(FitCacheKey, TimesMatterIndependentlyOfValues) {
  // Same concatenated byte streams, different time/value split: the hash
  // separates the two arrays, so these must not collide as full keys.
  const data::PerformanceSeries a("a", {0, 1, 2}, {3, 4, 5});
  const data::PerformanceSeries b("b", {0, 1, 3}, {2, 4, 5});
  const core::FitOptions options;
  EXPECT_NE(serve::make_fit_cache_key(a, "m", 1, options),
            serve::make_fit_cache_key(b, "m", 1, options));
}

TEST(FitCacheKey, OneBitChangeInAnySampleChangesTheSeriesHash) {
  // Raw-bit semantics: flipping any single bit of any time or value --
  // including the sign bit that separates -0.0 from 0.0 -- changes the hash.
  std::vector<double> times = {0.0, 1.0, 2.5, 4.0, 7.0};
  std::vector<double> values = {1.0, 0.0, 0.75, 0.9, 1.01};
  const std::uint64_t base =
      serve::hash_series(data::PerformanceSeries("s", times, values));
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> flipped = values;
      std::uint64_t word = 0;
      std::memcpy(&word, &flipped[i], sizeof word);
      word ^= std::uint64_t{1} << bit;
      std::memcpy(&flipped[i], &word, sizeof word);
      EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", times, flipped)), base)
          << "value " << i << " bit " << bit;
    }
  }
  // Times must stay increasing: flip only the low 40 mantissa bits of the
  // interior samples, which keeps the order.
  for (std::size_t i = 1; i + 1 < times.size(); ++i) {
    for (int bit = 0; bit < 40; ++bit) {
      std::vector<double> flipped = times;
      std::uint64_t word = 0;
      std::memcpy(&word, &flipped[i], sizeof word);
      word ^= std::uint64_t{1} << bit;
      std::memcpy(&flipped[i], &word, sizeof word);
      EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", flipped, values)), base)
          << "time " << i << " bit " << bit;
    }
  }
  EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", {0.0, 1.0}, {1.0, 0.0})),
            serve::hash_series(data::PerformanceSeries("s", {0.0, 1.0}, {1.0, -0.0})));
}

TEST(FitCacheKey, NegatingTwoSamplesChangesTheSeriesHash) {
  // Flipping the sign bit of one word and then of a later one must not
  // cancel out in the lane: negate every pair of values (adjacent or not),
  // and every pair of one other bit, and the hash must change.
  const std::vector<double> times = {0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> values = {1.0, 0.9, 0.8, 0.85, 0.95};
  const std::uint64_t base =
      serve::hash_series(data::PerformanceSeries("s", times, values));
  for (const int bit : {63, 62, 52, 51, 0}) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        std::vector<double> flipped = values;
        for (const std::size_t k : {i, j}) {
          std::uint64_t word = 0;
          std::memcpy(&word, &flipped[k], sizeof word);
          word ^= std::uint64_t{1} << bit;
          std::memcpy(&flipped[k], &word, sizeof word);
        }
        EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", times, flipped)), base)
            << "values " << i << " and " << j << " bit " << bit;
      }
    }
  }
  EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", {0, 1, 2}, {1.0, 0.9, 0.8})),
            serve::hash_series(data::PerformanceSeries("s", {0, 1, 2}, {1.0, -0.9, -0.8})));
  EXPECT_NE(serve::hash_series(data::PerformanceSeries("s", {0, 1}, {0.0, 0.0})),
            serve::hash_series(data::PerformanceSeries("s", {0, 1}, {-0.0, -0.0})));
}

TEST(FitCacheKey, EveryScalarFieldParticipates) {
  const auto series = series_of({1.0, 0.9, 0.8, 0.85, 0.95});
  core::FitOptions options;
  const FitCacheKey base = serve::make_fit_cache_key(series, "model-a", 1, options);

  EXPECT_NE(base, serve::make_fit_cache_key(series, "model-b", 1, options));
  EXPECT_NE(base, serve::make_fit_cache_key(series, "model-a", 2, options));

  core::FitOptions robust = options;
  robust.loss = opt::LossKind::kHuber;
  EXPECT_NE(base, serve::make_fit_cache_key(series, "model-a", 1, robust));

  core::FitOptions rescaled = robust;
  rescaled.loss_scale = robust.loss_scale * 2.0;
  EXPECT_NE(serve::make_fit_cache_key(series, "model-a", 1, robust),
            serve::make_fit_cache_key(series, "model-a", 1, rescaled));
}

TEST(FitCacheKey, CacheabilityRules) {
  core::FitOptions plain;
  EXPECT_TRUE(serve::cacheable(plain));

  core::FitOptions weighted = plain;
  weighted.weights = {1.0, 2.0, 1.0};
  EXPECT_FALSE(serve::cacheable(weighted));

  core::FitOptions warm = plain;
  warm.warm_start = num::Vector{0.5, 0.5};
  EXPECT_FALSE(serve::cacheable(warm));
}

FitCacheKey key_n(int n) {
  // Aggregate init (not member-wise assignment): GCC 12 raises a spurious
  // -Wrestrict on std::string::operator=(const char*) at -O2.
  return FitCacheKey{static_cast<std::uint64_t>(n), 16, std::string("m"), 0, 0, 0.0};
}

TEST(FitCache, LookupInsertAndCounters) {
  FitCache cache(4);
  EXPECT_EQ(cache.lookup(key_n(1)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(key_n(1), fake_fit(11.0));
  const auto hit = cache.lookup(key_n(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->sse, 11.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FitCache, LookupWithTheSeriesMissesOnAnotherSeriesFit) {
  // The key holds only a digest of the series. Forge a key collision -- the
  // key of series `a` presented with series `b`, bitwise different only in
  // the signs of two samples -- and the series-checked lookup must miss.
  const auto a = series_of({1.0, 0.9, 0.8, 0.85, 0.95});
  const auto b = series_of({1.0, -0.9, -0.8, 0.85, 0.95});
  const auto zeros = series_of({0.0, 0.0, 0.0, 0.0, 0.0});
  const auto negative_zeros = series_of({0.0, -0.0, -0.0, 0.0, 0.0});
  FitCache cache(4);
  for (const auto& [cached, other] : {std::pair{&a, &b}, std::pair{&zeros, &negative_zeros}}) {
    const core::FitOptions options;
    const FitCacheKey key = serve::make_fit_cache_key(*cached, "quadratic", 0, options);
    cache.insert(key, std::make_shared<core::FitResult>(
                          core::fit_model("quadratic", *cached, 0, options)));
    const std::uint64_t misses = cache.misses();
    EXPECT_EQ(cache.lookup(key, other), nullptr);
    EXPECT_EQ(cache.misses(), misses + 1);
    const auto hit = cache.lookup(key, cached);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->series().values()[1], (*cached).values()[1]);
    // The key-only form trusts the key.
    EXPECT_EQ(cache.lookup(key), hit);
  }
}

TEST(FitCache, EvictsLeastRecentlyUsed) {
  FitCache cache(3);
  cache.insert(key_n(1), fake_fit(1));
  cache.insert(key_n(2), fake_fit(2));
  cache.insert(key_n(3), fake_fit(3));

  // Touch 1 so it becomes MRU; inserting 4 must now evict 2, not 1.
  ASSERT_NE(cache.lookup(key_n(1)), nullptr);
  cache.insert(key_n(4), fake_fit(4));

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.lookup(key_n(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_n(2)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_n(3)), nullptr);
  EXPECT_NE(cache.lookup(key_n(4)), nullptr);
}

TEST(FitCache, EvictionDoesNotInvalidateHandedOutResults) {
  FitCache cache(1);
  cache.insert(key_n(1), fake_fit(1.5));
  const auto held = cache.lookup(key_n(1));
  cache.insert(key_n(2), fake_fit(2.5));  // evicts key 1
  EXPECT_EQ(cache.lookup(key_n(1)), nullptr);
  ASSERT_NE(held, nullptr);  // our reference is still alive and intact
  EXPECT_DOUBLE_EQ(held->sse, 1.5);
}

TEST(FitCache, ReinsertSameKeyKeepsNewestValue) {
  FitCache cache(4);
  cache.insert(key_n(1), fake_fit(1.0));
  cache.insert(key_n(1), fake_fit(9.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_n(1))->sse, 9.0);
}

TEST(FitCache, CapacityZeroDisablesCaching) {
  FitCache cache(0);
  cache.insert(key_n(1), fake_fit(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key_n(1)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FitCache, ClearEmptiesEntriesButCountersPersist) {
  FitCache cache(4);
  cache.insert(key_n(1), fake_fit(1.0));
  ASSERT_NE(cache.lookup(key_n(1)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key_n(1)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FitCache, ShardCountClampsAndCapacitySplits) {
  FitCache cache(10, 4);
  EXPECT_EQ(cache.shards(), 4u);
  EXPECT_EQ(cache.capacity(), 10u);

  // Never more shards than entries: a zero-capacity shard would be a
  // permanent miss for its slice of the key space.
  FitCache tiny(2, 8);
  EXPECT_EQ(tiny.shards(), 2u);

  // shards == 0 resolves to the pool default, always >= 1.
  FitCache auto_sharded(64, 0);
  EXPECT_GE(auto_sharded.shards(), 1u);
  EXPECT_LE(auto_sharded.shards(), 64u);
}

TEST(FitCache, EvictionCounterTracksLruDrops) {
  FitCache cache(2, 1);
  cache.insert(key_n(1), fake_fit(1));
  cache.insert(key_n(2), fake_fit(2));
  EXPECT_EQ(cache.evictions(), 0u);
  cache.insert(key_n(3), fake_fit(3));  // drops key 1 (LRU)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(key_n(1)), nullptr);

  const serve::FitCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

/// First `count` generated keys landing in shard `target` of a
/// `shard_count`-way cache, via the exposed shard_index mapping.
std::vector<FitCacheKey> aliased_keys(std::size_t shard_count, std::size_t target,
                                      std::size_t count) {
  std::vector<FitCacheKey> keys;
  for (int n = 0; keys.size() < count; ++n) {
    FitCacheKey key = key_n(n);
    if (FitCache::shard_index(key, shard_count) == target) keys.push_back(key);
  }
  return keys;
}

TEST(FitCache, ShardAliasedConcurrentHammerHasNoLostUpdates) {
  // Every key aliases into shard 0 of a 4-way cache, so all 8 threads fight
  // over ONE shard mutex. Per-shard capacity (128/4 = 32) exceeds the 24-key
  // working set: nothing may ever be evicted, so after the storm every key
  // must be resident with the value its slot always receives.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kKeys = 24;
  FitCache cache(128, kShards);
  ASSERT_EQ(cache.shards(), kShards);
  const std::vector<FitCacheKey> keys = aliased_keys(kShards, 0, kKeys);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &keys, &wrong_value, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::size_t slot = static_cast<std::size_t>(t * 13 + i) % keys.size();
        if (i % 2 == 0) {
          cache.insert(keys[slot], fake_fit(static_cast<double>(slot)));
        } else if (const auto fit = cache.lookup(keys[slot])) {
          if (fit->sse != static_cast<double>(slot)) wrong_value = true;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(wrong_value.load());
  EXPECT_EQ(cache.evictions(), 0u);
  for (std::size_t slot = 0; slot < keys.size(); ++slot) {
    const auto fit = cache.lookup(keys[slot]);
    ASSERT_NE(fit, nullptr) << "lost update on aliased key " << slot;
    EXPECT_DOUBLE_EQ(fit->sse, static_cast<double>(slot));
  }
  // Counter math is exact: every op is either a hit or a miss, and the
  // verification pass above added kKeys hits.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread / 2 + kKeys);
}

TEST(FitCache, LruEvictionOrderIsPerShardUnderInterleavedGetPut) {
  // 4 slots over 2 shards = 2 per shard. Churn three keys through shard 0
  // while shard 1 holds a single untouched resident: eviction order within
  // shard 0 must follow LRU-with-promotion exactly, and the churn must never
  // disturb shard 1.
  constexpr std::size_t kShards = 2;
  FitCache cache(4, kShards);
  const std::vector<FitCacheKey> s0 = aliased_keys(kShards, 0, 3);
  const std::vector<FitCacheKey> s1 = aliased_keys(kShards, 1, 1);

  cache.insert(s1[0], fake_fit(100.0));

  cache.insert(s0[0], fake_fit(0.0));
  cache.insert(s0[1], fake_fit(1.0));
  ASSERT_NE(cache.lookup(s0[0]), nullptr);  // promote 0 -> MRU
  cache.insert(s0[2], fake_fit(2.0));       // shard 0 full: evicts 1, not 0

  EXPECT_EQ(cache.lookup(s0[1]), nullptr);
  EXPECT_NE(cache.lookup(s0[0]), nullptr);
  EXPECT_NE(cache.lookup(s0[2]), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);

  const auto other = cache.lookup(s1[0]);
  ASSERT_NE(other, nullptr) << "churn in shard 0 must never evict shard 1";
  EXPECT_DOUBLE_EQ(other->sse, 100.0);
}

TEST(FitCache, ConcurrentMixedOperationsAreSafe) {
  FitCache cache(8);  // smaller than the working set: constant eviction churn
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1998;  // divisible by 3: exact counter math below
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failed, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int slot = (t * 7 + i) % 16;
        if (i % 3 == 0) {
          cache.insert(key_n(slot), fake_fit(static_cast<double>(slot)));
        } else if (const auto fit = cache.lookup(key_n(slot))) {
          // A hit must always carry the value inserted under that key.
          if (fit->sse != static_cast<double>(slot)) failed = true;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread * 2 / 3);
}

}  // namespace
