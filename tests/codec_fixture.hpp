// A deterministic live::Monitor history that exercises every part of the
// snapshot and WAL text formats: all seven record types, a snapshot holding
// a fit and an alert rule whose name has spaces, and refit records whose
// predictions are non-finite ("-inf", "nan", "inf").
//
// tests/fixtures/wal_v2/ is the directory write_history() produced with the
// build before the text codec moved from iostreams to a to_chars/from_chars
// cursor, and tests/fixtures/wal_v2_recovered.prm is what that build's
// Monitor::recover + save() gave for it. test_wal_compat checks that the
// current build writes the same bytes and reads the old ones back.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "live/monitor.hpp"

namespace prm::codec_fixture {

/// A straight line P(t) = level + slope * t with deliberately degenerate
/// predictions: its trough is NaN, evaluating it at a non-finite time gives
/// +inf (the predicted trough value), and its recovery time is -inf. A fit
/// with a negative slope makes the trough lookup throw, which the monitor
/// logs as a failed refit.
class ProbeModel final : public core::ResilienceModel {
 public:
  std::string name() const override { return "codec-probe"; }
  std::string description() const override { return "line with non-finite forecasts"; }
  std::size_t num_parameters() const override { return 2; }
  std::vector<std::string> parameter_names() const override { return {"level", "slope"}; }
  std::vector<opt::Bound> parameter_bounds() const override {
    return {opt::Bound::free(), opt::Bound::free()};
  }
  double evaluate(double t, const num::Vector& p) const override {
    if (!std::isfinite(t)) return std::numeric_limits<double>::infinity();
    return p[0] + p[1] * t;
  }
  std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& s) const override {
    return {{s.value(0), 0.0}};
  }
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries&) const override {
    return {{0.0, -1.0}, {2.0, 1.0}};
  }
  std::optional<double> recovery_time_closed_form(const num::Vector&, double,
                                                  double) const override {
    return -std::numeric_limits<double>::infinity();
  }
  std::optional<double> trough_closed_form(const num::Vector& p) const override {
    if (p[1] < 0.0) throw std::runtime_error("codec-probe: still declining");
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<ProbeModel>(*this);
  }
};

inline void register_probe_model() {
  static const bool registered = [] {
    core::ModelRegistry::instance().register_model(
        "codec-probe", [] { return core::ModelPtr(new ProbeModel()); });
    return true;
  }();
  (void)registered;
}

/// Flat at 1.0, down to 0.8 over t in [16, 20], back up to 1.02 by t = 32.
inline double dip(double t) {
  if (t <= 16.0) return 1.0;
  if (t <= 20.0) return 1.0 - 0.05 * (t - 16.0);
  if (t <= 32.0) return 0.8 + 0.22 * (t - 20.0) / 12.0;
  return 1.02;
}

/// Deterministic options: one refit thread driven by refit_batch(1), no
/// background fsync or compaction, two WAL shards.
inline live::MonitorOptions options(const std::string& dir) {
  register_probe_model();
  live::MonitorOptions options;
  options.stream.window_capacity = 64;
  options.stream.cusum.baseline = 12;
  options.model = "codec-probe";
  options.refit_every = 4;
  options.min_fit_samples = 8;
  options.threads = 1;
  options.shards = 2;
  options.batched_refits = true;
  options.wal.dir = dir;
  options.wal.fsync = wal::FsyncPolicy::kNever;
  options.wal.compact_check_ms = 0;
  return options;
}

/// Write the history into the empty directory `dir`: a checkpointed first
/// part (the snapshot) and a log tail that holds every record type. The
/// monitor is dropped without shutdown(), as a crash would leave it.
inline void write_history(const std::string& dir) {
  live::Monitor monitor(options(dir));
  live::AlertRule low;
  low.name = "low water mark";
  low.kind = live::AlertKind::kValueBelow;
  low.threshold = 0.85;
  monitor.add_alert_rule(low);

  for (int t = 0; t < 40; ++t) {
    monitor.ingest("alpha", t, dip(t));
    monitor.refit_batch(1);
  }
  for (int t = 0; t < 24; t += 4) {
    std::vector<std::pair<double, double>> batch;
    for (int k = t; k < t + 4; ++k) batch.emplace_back(0.5 * k, 2.0 + 1e-3 * k);
    monitor.ingest_batch("beta", batch);
  }
  monitor.checkpoint();

  live::AlertRule degrading;
  degrading.name = "degrading";
  degrading.kind = live::AlertKind::kPhaseTransition;
  degrading.phase = live::StreamPhase::kDegrading;
  degrading.once_per_event = false;
  monitor.add_alert_rule(degrading);
  for (int t = 40; t < 84; t += 4) {
    std::vector<std::pair<double, double>> batch;
    for (int k = t; k < t + 4; ++k) batch.emplace_back(k, dip(k - 40));
    monitor.ingest_batch("alpha", batch);
    monitor.refit_batch(1);
  }
  for (int t = 0; t < 30; ++t) {
    monitor.ingest("gamma", 0.25 * t, dip(t) * 3.0);
    monitor.refit_batch(1);
  }
  monitor.remove_stream("beta");
  monitor.ingest("beta", 100.0, 1.0);
}

/// The committed fixture directory and the recovered snapshot expected of it.
inline std::string fixture_dir() { return std::string(PRM_FIXTURES_DIR) + "/wal_v2"; }
inline std::string recovered_path() {
  return std::string(PRM_FIXTURES_DIR) + "/wal_v2_recovered.prm";
}

/// RAII temp directory under `base` (default: TMPDIR, else /tmp), removed
/// recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const char* base = std::getenv("TMPDIR")) {
    path_ = std::string(base != nullptr ? base : "/tmp") + "/prm_codec_XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Copy the fixture into `dir`: recovery opens the log for writing, so it
/// never runs on the committed files themselves.
inline void copy_fixture(const std::string& dir) {
  std::filesystem::copy(fixture_dir(), dir,
                        std::filesystem::copy_options::recursive);
}

}  // namespace prm::codec_fixture
