// Shared pieces of prm_bench: the seeded workload generators, the request
// record they produce, and small helpers used by the load generator, the traced
// replay and the output checks.
//
// Every workload is a deterministic function of (name, seed): the same pair
// always yields the same request stream, byte for byte, in the same order.
// The server under test only ever sees these generated requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/time_series.hpp"

namespace prm::bench {

enum class Route { kFit, kForecast, kMetrics, kIngest, kIngestBatch, kStreamGet };

std::string_view route_name(Route route);

/// Keep-alive connections the generator may use (the host has 4 cores; the
/// generator and the server never get more than that between them).
constexpr std::uint32_t kConnections = 4;

struct BenchRequest {
  std::uint64_t id = 0;
  Route route = Route::kFit;
  std::uint32_t conn = 0;  ///< Connection index; a stream always maps to one.
  std::string key;         ///< Series name or stream name (the ring key).
  std::string method;      ///< "POST" or "GET".
  std::string target;      ///< Path, e.g. "/v1/fit".
  std::string body;        ///< JSON body; empty for GET.
  std::vector<std::pair<double, double>> samples;  ///< Ingest routes only.

  /// The HTTP/1.1 request bytes as sent on the wire.
  std::string wire() const;
};

/// splitmix64: the one mixing function every seeded choice below derives from.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Deterministic per-draw random numbers (no std::*_distribution, whose
/// output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed ^ 0x9e3779b97f4a7c15ULL)) {}
  std::uint64_t next() noexcept;
  double uniform() noexcept;  ///< [0, 1)
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) noexcept { return static_cast<std::size_t>(next() % n); }
  double normal() noexcept;     ///< Box-Muller, standard normal.
  double exponential() noexcept;  ///< Unit-mean exponential.

 private:
  std::uint64_t state_;
};

/// Poisson arrival schedule: offsets (ns from phase start) of requests due in
/// [0, seconds) at `rate` per second. Deterministic in (rate, seconds, seed).
std::vector<std::int64_t> poisson_schedule(double rate, double seconds, std::uint64_t seed);

/// Fit-shaped request body for `series`.
std::string fit_body(const data::PerformanceSeries& series, const std::string& model,
                     std::size_t holdout, std::size_t steps);

/// Body for the ingest routes: {"samples":[[t,v],...]} or {"t":..,"value":..}.
std::string ingest_body(const std::vector<std::pair<double, double>>& samples, bool single);

class Workload {
 public:
  virtual ~Workload() = default;
  virtual BenchRequest next() = 0;

  /// Live workloads: the monitored streams and, before the first request,
  /// the samples each already holds (the recovered pre-history). The
  /// pre-history is written in two parts: `checkpointed` samples folded into
  /// the snapshot, then a log tail.
  virtual std::vector<std::string> streams() const { return {}; }
  virtual std::vector<std::pair<double, double>> prehistory(std::size_t /*stream*/) {
    return {};
  }
  /// Live workloads: requests that walk every stream out of its current event
  /// and through a long nominal stretch, so its phase no longer depends on
  /// when asynchronous refits landed. Sent closed-loop after the timed phases.
  virtual std::vector<BenchRequest> settle() { return {}; }

  static std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed);
};

/// Samples of forecast-lag probe stream `index` (a stream walk of its own).
std::vector<std::pair<double, double>> probe_samples(std::uint64_t seed, std::size_t index,
                                                     std::size_t count);

bool is_workload(const std::string& name);
bool is_live(const std::string& name);

/// Samples of the pre-history the live workloads recover from: the first
/// kPrehistoryCheckpointed go into the snapshot, the rest stay in the log.
constexpr std::size_t kPrehistorySamples = 64;
constexpr std::size_t kPrehistoryCheckpointed = 40;

}  // namespace prm::bench
