// The three seeded workloads and the helpers they share (see bench.hpp and
// perfbench/README.md for why each one exists).
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "data/generator.hpp"
#include "serve/json.hpp"

namespace prm::bench {

std::string_view route_name(Route route) {
  switch (route) {
    case Route::kFit: return "fit";
    case Route::kForecast: return "forecast";
    case Route::kMetrics: return "metrics";
    case Route::kIngest: return "ingest";
    case Route::kIngestBatch: return "ingest_batch";
    case Route::kStreamGet: return "stream_get";
  }
  return "?";
}

std::string BenchRequest::wire() const {
  std::string out;
  out.reserve(96 + target.size() + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() noexcept {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix64(state_);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::normal() noexcept {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::exponential() noexcept { return -std::log(1.0 - uniform()); }

std::vector<std::int64_t> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  std::vector<std::int64_t> due;
  if (!(rate > 0.0) || !(seconds > 0.0)) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  Rng rng(seed);
  const double end_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate;
  for (double t = mean_gap_ns * rng.exponential(); t < end_ns;
       t += mean_gap_ns * rng.exponential()) {
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

namespace {

void append_number(double v, std::string& out) { serve::append_json_number(v, out); }

}  // namespace

std::string fit_body(const data::PerformanceSeries& series, const std::string& model,
                     std::size_t holdout, std::size_t steps) {
  std::string out;
  out.reserve(64 + series.size() * 20);
  out += "{\"holdout\":";
  out += std::to_string(holdout);
  out += ",\"model\":\"";
  out += model;
  out += "\",\"series\":{\"name\":\"";
  out += series.name();
  out += "\",\"values\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) out += ',';
    append_number(series.value(i), out);
  }
  out += "]},\"steps\":";
  out += std::to_string(steps);
  out += '}';
  return out;
}

std::string ingest_body(const std::vector<std::pair<double, double>>& samples, bool single) {
  std::string out;
  if (single) {
    out += "{\"t\":";
    append_number(samples.front().first, out);
    out += ",\"value\":";
    append_number(samples.front().second, out);
    out += '}';
    return out;
  }
  out += "{\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) out += ',';
    out += '[';
    append_number(samples[i].first, out);
    out += ',';
    append_number(samples[i].second, out);
    out += ']';
  }
  out += "]}";
  return out;
}

namespace {

constexpr data::RecessionShape kFitShapes[] = {
    data::RecessionShape::kV, data::RecessionShape::kU, data::RecessionShape::kW,
    data::RecessionShape::kL};

/// One seeded resilience event of `length` samples.
data::PerformanceSeries event_series(Rng& rng, std::size_t length, const std::string& name,
                                     data::RecessionShape shape) {
  data::ScenarioSpec spec;
  spec.shape = shape;
  spec.length = length;
  spec.depth = rng.uniform(0.03, 0.12);
  spec.trough_at = rng.uniform(0.18, 0.35);
  spec.recovery_gain = rng.uniform(0.005, 0.04);
  spec.noise = rng.uniform(0.0004, 0.0012);
  spec.seed = rng.next();
  const data::PerformanceSeries generated = data::generate_scenario(spec);
  const auto times = generated.times();
  const auto values = generated.values();
  return data::PerformanceSeries(name, {times.begin(), times.end()},
                                 {values.begin(), values.end()});
}

BenchRequest fit_request(std::uint64_t id, Route route, const std::string& key,
                         std::string body) {
  BenchRequest r;
  r.id = id;
  r.route = route;
  r.conn = static_cast<std::uint32_t>(id % kConnections);
  r.key = key;
  r.method = "POST";
  r.target = route == Route::kFit        ? "/v1/fit"
             : route == Route::kForecast ? "/v1/forecast"
                                         : "/v1/metrics";
  r.body = std::move(body);
  return r;
}

/// fit_cold: every request is a fresh series, so it misses both caches and
/// runs the LM multistart. The mix is stratified so every run carries the
/// same composition whatever the seed: each block of 10 requests holds 4
/// /v1/fit, 3 /v1/forecast and 3 /v1/metrics, 9 bathtub fits (competing-risks
/// and quadratic alternating) over V/U/W/L series of 24-240 samples whose
/// lengths sweep the range in a seeded rotation, and 1 mixture fit
/// (mix-exp-exp-log) on an early-event window of 24-72 samples. The seed
/// picks each series' depth, trough, recovery and noise.
class FitColdWorkload final : public Workload {
 public:
  explicit FitColdWorkload(std::uint64_t seed)
      : seed_(seed), offset_(static_cast<std::size_t>(mix64(seed) % 10007)) {}

  BenchRequest next() override {
    const std::uint64_t id = next_id_++;
    Rng rng(seed_ * 0x100000001b3ULL + id);
    const std::size_t slot = id % 10;
    const Route route = slot < 4 ? Route::kFit : slot < 7 ? Route::kForecast : Route::kMetrics;
    const bool mixture = slot == (offset_ % 10);
    const std::size_t block = id / 10;
    const std::string model = mixture ? "mix-exp-exp-log"
                              : (id + offset_) % 2 ? "competing-risks"
                                                   : "quadratic";
    const std::size_t length = mixture ? 24 + (block * 19 + offset_) % 49
                                       : 24 + (id * 97 + offset_) % 217;
    const std::string key = "cold-" + std::to_string(seed_) + "-" + std::to_string(id);
    const data::PerformanceSeries series =
        event_series(rng, length, key, kFitShapes[(id + offset_ / 7) % 4]);
    return fit_request(id, route, key,
                       fit_body(series, model, std::max<std::size_t>(length / 10, 1), 12));
  }

 private:
  std::uint64_t seed_;
  std::size_t offset_;
  std::uint64_t next_id_ = 0;
};

/// One telemetry stream: nominal stretches around 1.0 alternating with seeded
/// V/U/W resilience events (about 30% of samples fall inside events).
class StreamWalk {
 public:
  StreamWalk(std::uint64_t seed, std::string name) : rng_(seed), name_(std::move(name)) {}

  std::pair<double, double> next() {
    if (pos_ >= segment_.size()) refill();
    const double t = static_cast<double>(t_++);
    return {t, segment_[pos_++]};
  }

  /// Samples until the current event (if any) has ended and `nominal_run`
  /// nominal samples have followed it.
  std::vector<std::pair<double, double>> settle(std::size_t nominal_run) {
    std::vector<std::pair<double, double>> out;
    while (in_event_ && pos_ < segment_.size()) out.push_back(next());
    in_event_ = false;
    segment_.clear();
    pos_ = 0;
    for (std::size_t i = 0; i < nominal_run; ++i) {
      out.emplace_back(static_cast<double>(t_++), nominal_value());
    }
    next_is_event_ = true;
    return out;
  }

  const std::string& name() const { return name_; }
  bool started() const { return t_ > 0; }

 private:
  /// Nominal stretches hold, exactly, the level the last event recovered to:
  /// no step after an event for the CUSUM to read as a dip, and no noise for
  /// a 12-sample baseline to under-estimate. Onsets are then the seeded
  /// events alone, whenever the stream's baseline was frozen -- which
  /// depends on when asynchronous refits landed (the fitted-t_r gate on
  /// RESTORED), so noise here would make phases timing-dependent.
  double nominal_value() const { return level_; }

  void refill() {
    segment_.clear();
    pos_ = 0;
    if (next_is_event_) {
      constexpr data::RecessionShape kShapes[] = {
          data::RecessionShape::kV, data::RecessionShape::kU, data::RecessionShape::kW};
      const data::PerformanceSeries event =
          event_series(rng_, 24 + rng_.below(37), name_, kShapes[rng_.below(3)]);
      for (const double v : event.values()) segment_.push_back(level_ * v);
      level_ = segment_.back();
      in_event_ = true;
    } else {
      const std::size_t length = 40 + rng_.below(81);
      for (std::size_t i = 0; i < length; ++i) segment_.push_back(nominal_value());
      in_event_ = false;
    }
    next_is_event_ = !next_is_event_;
  }

  Rng rng_;
  std::string name_;
  std::vector<double> segment_;
  std::size_t pos_ = 0;
  std::uint64_t t_ = 0;
  bool next_is_event_ = false;
  bool in_event_ = false;
  double level_ = 1.0;
};

/// live_ingest / routed_ingest: hundreds of streams; ingest-batch, single
/// ingest and snapshot reads side by side. A stream always rides the same
/// connection, so its samples reach the server in time order.
class IngestWorkload final : public Workload {
 public:
  static constexpr std::size_t kStreams = 400;
  static constexpr std::size_t kBatch = 8;

  IngestWorkload(std::uint64_t seed, bool prehistory)
      : rng_(seed ^ 0x1a9e57ULL), has_prehistory_(prehistory) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      char name[32];
      std::snprintf(name, sizeof name, "stream-%04zu", s);
      walks_.emplace_back(mix64(seed * 1000003ULL + s), name);
    }
    if (has_prehistory_) {
      for (auto& walk : walks_) {
        for (std::size_t i = 0; i < kPrehistorySamples; ++i) prehistory_.push_back(walk.next());
      }
    }
  }

  BenchRequest next() override {
    BenchRequest r;
    r.id = next_id_++;
    const std::size_t s = rng_.below(kStreams);
    StreamWalk& walk = walks_[s];
    r.conn = static_cast<std::uint32_t>(s % kConnections);
    r.key = walk.name();
    // A stream exists once its first sample is in: until then a read would
    // be a 404, so the first request of a fresh stream is always an ingest.
    // The route mix is fixed per block of 20 requests (4 reads, 7 single
    // ingests, 9 batches) so every seed carries the same composition.
    const std::size_t slot = r.id % 20;
    if (slot < 4 && walk.started()) {
      r.route = Route::kStreamGet;
      r.method = "GET";
      r.target = "/v1/streams/" + walk.name();
      return r;
    }
    r.method = "POST";
    const bool single = slot < 11;
    r.route = single ? Route::kIngest : Route::kIngestBatch;
    r.target = "/v1/streams/" + walk.name() + (single ? "/ingest" : "/ingest-batch");
    const std::size_t n = single ? 1 : kBatch;
    for (std::size_t i = 0; i < n; ++i) r.samples.push_back(walk.next());
    r.body = ingest_body(r.samples, single);
    return r;
  }

  std::vector<std::string> streams() const override {
    std::vector<std::string> names;
    for (const auto& walk : walks_) names.push_back(walk.name());
    return names;
  }

  std::vector<std::pair<double, double>> prehistory(std::size_t stream) override {
    if (!has_prehistory_) return {};
    const auto first = prehistory_.begin() + static_cast<std::ptrdiff_t>(stream * kPrehistorySamples);
    return {first, first + static_cast<std::ptrdiff_t>(kPrehistorySamples)};
  }

  std::vector<BenchRequest> settle() override {
    std::vector<BenchRequest> out;
    for (std::size_t s = 0; s < walks_.size(); ++s) {
      const auto samples = walks_[s].settle(96);
      for (std::size_t i = 0; i < samples.size(); i += 32) {
        BenchRequest r;
        r.id = next_id_++;
        r.route = Route::kIngestBatch;
        r.conn = static_cast<std::uint32_t>(s % kConnections);
        r.key = walks_[s].name();
        r.method = "POST";
        r.target = "/v1/streams/" + r.key + "/ingest-batch";
        r.samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(i),
                         samples.begin() + static_cast<std::ptrdiff_t>(std::min(i + 32, samples.size())));
        r.body = ingest_body(r.samples, false);
        out.push_back(std::move(r));
      }
    }
    return out;
  }

 private:
  Rng rng_;
  bool has_prehistory_;
  std::vector<StreamWalk> walks_;
  std::vector<std::pair<double, double>> prehistory_;
  std::uint64_t next_id_ = 0;
};

}  // namespace

std::vector<std::pair<double, double>> probe_samples(std::uint64_t seed, std::size_t index,
                                                     std::size_t count) {
  StreamWalk walk(mix64(seed ^ (0x9b0be5ULL + index)), "probe");
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(walk.next());
  return out;
}

bool is_workload(const std::string& name) {
  return name == "fit_cold" || is_live(name);
}

bool is_live(const std::string& name) {
  return name == "live_ingest" || name == "routed_ingest";
}

std::unique_ptr<Workload> Workload::make(const std::string& name, std::uint64_t seed) {
  if (name == "fit_cold") return std::make_unique<FitColdWorkload>(seed);
  if (name == "live_ingest") return std::make_unique<IngestWorkload>(seed, true);
  if (name == "routed_ingest") return std::make_unique<IngestWorkload>(seed, false);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace prm::bench
