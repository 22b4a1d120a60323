#include "serve/fit_cache.hpp"

#include <cstring>

#include "par/task_pool.hpp"

namespace prm::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// 64-bit finalizer (splitmix64) so shard selection uses well-mixed high
/// entropy even if the FNV digest clusters in its low bits.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bit-for-bit equality of two series' times and values (-0.0 != 0.0).
bool same_samples(const data::PerformanceSeries& a, const data::PerformanceSeries& b) {
  const std::size_t bytes = a.size() * sizeof(double);
  return a.size() == b.size() &&
         (bytes == 0 || (std::memcmp(a.times().data(), b.times().data(), bytes) == 0 &&
                         std::memcmp(a.values().data(), b.values().data(), bytes) == 0));
}

}  // namespace

std::uint64_t hash_series(const data::PerformanceSeries& series) {
  // Word-at-a-time FNV on two lanes, times on one and values on the other:
  // the lanes' multiplies overlap instead of forming one serial chain per
  // byte. Each sample's bits go through the bijective mix64 before they
  // enter a lane, so every bit of a word reaches every bit of the lane;
  // fed raw, a flip of bit 63 (the sign) only flips the lane's bit 63, and
  // negating two adjacent samples would cancel out. Each step is still a
  // bijection of the lane, so a change to any one sample's raw bits
  // (-0.0 != 0.0) always changes the hash.
  const std::span<const double> times = series.times();
  const std::span<const double> values = series.values();
  std::uint64_t h1 = kFnvOffset;
  std::uint64_t h2 = kFnvOffset ^ 0x27220a95fe844299ull;
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::uint64_t t = 0;
    std::uint64_t v = 0;
    std::memcpy(&t, &times[i], sizeof t);
    std::memcpy(&v, &values[i], sizeof v);
    h1 = (h1 ^ mix64(t)) * kFnvPrime;
    h2 = (h2 ^ mix64(v)) * kFnvPrime;
  }
  h2 = (h2 ^ (static_cast<std::uint64_t>(times.size()) << 1)) * kFnvPrime;
  return h1 ^ mix64(h2);
}

bool cacheable(const core::FitOptions& options) {
  return options.weights.empty() && !options.warm_start.has_value();
}

FitCacheKey make_fit_cache_key(const data::PerformanceSeries& series,
                               const std::string& model, std::size_t holdout,
                               const core::FitOptions& options) {
  FitCacheKey key;
  key.series_hash = hash_series(series);
  key.series_length = series.size();
  key.model = model;
  key.holdout = holdout;
  key.loss_kind = static_cast<int>(options.loss);
  key.loss_scale = options.loss_scale;
  return key;
}

std::size_t FitCache::KeyHash::operator()(const FitCacheKey& key) const noexcept {
  std::uint64_t h = key.series_hash;
  h = fnv1a(h, key.model.data(), key.model.size());
  const std::uint64_t scalars[3] = {key.series_length, key.holdout,
                                    static_cast<std::uint64_t>(key.loss_kind)};
  h = fnv1a(h, scalars, sizeof scalars);
  h = fnv1a(h, &key.loss_scale, sizeof key.loss_scale);
  return static_cast<std::size_t>(h);
}

std::size_t FitCache::shard_index(const FitCacheKey& key,
                                  std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(mix64(key.series_hash) % shard_count);
}

FitCache::FitCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (shards == 0) shards = par::TaskPool::default_threads();
  if (shards < 1) shards = 1;
  // Never more shards than entries: a zero-capacity shard would evict on
  // every insert and turn part of the key space into a permanent miss.
  if (capacity > 0 && shards > capacity) shards = capacity;
  shards_ = std::vector<Shard>(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_[i].capacity = capacity / shards + (i < capacity % shards ? 1 : 0);
  }
}

std::shared_ptr<const core::FitResult> FitCache::lookup(
    const FitCacheKey& key, const data::PerformanceSeries* series) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end() ||
      (series != nullptr && !same_samples(it->second->fit->series(), *series))) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.order.splice(shard.order.begin(), shard.order, it->second);  // promote to MRU
  return it->second->fit;
}

void FitCache::insert(const FitCacheKey& key,
                      std::shared_ptr<const core::FitResult> fit) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->fit = std::move(fit);
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return;
  }
  shard.order.push_front(Entry{key, std::move(fit)});
  shard.index.emplace(key, shard.order.begin());
  if (shard.index.size() > shard.capacity) {
    shard.index.erase(shard.order.back().key);
    shard.order.pop_back();
    ++shard.evictions;
  }
}

FitCacheStats FitCache::stats() const {
  FitCacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
    total.size += shard.index.size();
  }
  return total;
}

std::uint64_t FitCache::hits() const { return stats().hits; }

std::uint64_t FitCache::misses() const { return stats().misses; }

std::uint64_t FitCache::evictions() const { return stats().evictions; }

std::size_t FitCache::size() const { return stats().size; }

void FitCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.order.clear();
    shard.index.clear();
  }
}

}  // namespace prm::serve
