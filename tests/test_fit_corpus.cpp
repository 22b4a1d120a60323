// Corpus properties of the fit path: a fixed, seeded set of generated
// V/U/W/L/J/K resilience windows (24-240 samples) on which a model's start
// policy is checked against a broader reference solver, plus a live::Monitor
// replay that checks every warm refit against a cold fit of the same window.
//
// The pinned counts below may only fall. A change that raises one has made
// the fit worse on some window and must say which and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/bathtub.hpp"
#include "core/fitting.hpp"
#include "data/generator.hpp"
#include "data/recessions.hpp"
#include "live/monitor.hpp"
#include "live/stream_state.hpp"
#include "optimize/multistart.hpp"
#include "optimize/transforms.hpp"

namespace prm {
namespace {

// ---- The corpus -------------------------------------------------------------

/// `count` seeded windows cycling through the six letter shapes, with random
/// length (24-240), depth, trough position, recovery gain and noise.
std::vector<data::PerformanceSeries> generated_corpus(int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> length(24, 240);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const data::RecessionShape shapes[] = {data::RecessionShape::kV, data::RecessionShape::kU,
                                         data::RecessionShape::kW, data::RecessionShape::kL,
                                         data::RecessionShape::kJ, data::RecessionShape::kK};
  std::vector<data::PerformanceSeries> corpus;
  for (int i = 0; i < count; ++i) {
    data::ScenarioSpec spec;
    spec.shape = shapes[i % 6];
    spec.length = length(rng);
    spec.depth = 0.01 + 0.14 * unit(rng);
    spec.trough_at = 0.05 + 0.4 * unit(rng);
    spec.recovery_gain = spec.shape == data::RecessionShape::kL ? 0.0 : 0.06 * unit(rng);
    spec.noise = 0.003 * unit(rng);
    spec.seed = rng();
    corpus.push_back(data::generate_scenario(spec));
  }
  return corpus;
}

/// True when `sse` exceeds `reference` by more than `rel` relative (with an
/// absolute floor, so two exact fits at ~1e-25 never count).
bool worse_than(double sse, double reference, double rel) {
  return sse > reference + rel * std::max(reference, 1e-20);
}

// ---- Competing risks: one exact start vs the full multistart ---------------

/// The broad reference: the default multistart options (the model's guess,
/// 2 jittered copies, 8 Latin-hypercube starts, the Nelder-Mead polish of the
/// winner) over the same internal-coordinate SSE fit_model minimizes, called
/// through opt::multistart_least_squares directly. Returns the plain SSE.
double reference_sse(const core::ResilienceModel& model, const data::PerformanceSeries& fit) {
  const opt::ParameterTransform transform(model.parameter_bounds());
  opt::ResidualProblem problem;
  problem.num_parameters = model.num_parameters();
  problem.num_residuals = fit.size();
  problem.residuals = [&](const num::Vector& u) {
    const num::Vector p = transform.to_external(u);
    num::Vector r(fit.size());
    model.eval_batch(fit.times(), p, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = fit.value(i) - r[i];
    return r;
  };
  problem.jacobian = [&](const num::Vector& u) {
    const num::Vector p = transform.to_external(u);
    const num::Vector chain = transform.dexternal_dinternal(u);
    num::Matrix j;
    model.gradient_batch(fit.times(), p, &j);
    for (std::size_t i = 0; i < j.rows(); ++i) {
      for (std::size_t c = 0; c < j.cols(); ++c) j(i, c) *= -chain[c];
    }
    return j;
  };

  std::vector<num::Vector> starts;
  for (const num::Vector& g : model.initial_guesses(fit)) {
    starts.push_back(transform.to_internal(g));
  }
  const auto [lo, hi] = model.search_box(fit);
  const opt::MultistartResult ms = opt::multistart_least_squares(
      problem, starts, transform.to_internal(lo), transform.to_internal(hi), {});
  const num::Vector r = problem.residuals(ms.best.parameters);
  double sse = 0.0;
  for (double e : r) sse += e * e;
  return sse;
}

// Pinned: windows whose single-start fit is more than 1e-9 relative above the
// reference. May only fall.
constexpr int kCompetingRisksWorseWindows = 0;

TEST(FitCorpus, CompetingRisksOneExactStartMatchesTheFullMultistart) {
  const core::CompetingRisksModel model;
  int worse = 0;
  double worst_rel = 0.0;
  for (const data::PerformanceSeries& window : generated_corpus(300, 2029)) {
    const core::FitResult fit = core::fit_model(model, window, 0);
    ASSERT_TRUE(fit.success()) << window.size() << " samples";
    EXPECT_EQ(fit.starts_tried, 1);
    const double ref = reference_sse(model, window);
    worst_rel = std::max(worst_rel, (fit.sse - ref) / std::max(ref, 1e-20));
    if (worse_than(fit.sse, ref, 1e-9)) {
      ++worse;
      ADD_FAILURE() << "window of " << window.size() << " samples: SSE " << fit.sse
                    << " vs reference " << ref;
    }
  }
  std::ostringstream worst;
  worst << worst_rel;
  RecordProperty("worst_relative_excess", worst.str());
  EXPECT_LE(worse, kCompetingRisksWorseWindows);
}

// Exact data on the edges of the parameter space: the decreasing term alone
// (gamma's optimum is 0, a pure L-shape), a decay so fast that beta * t_max
// lies past the variable-projection scan, and the beta -> 0 limit (a straight
// line, which the scan stops short of). The SSE bound leaves room for gamma's
// clip at 1e-12 (an SSE of ~1e-20 over 40 samples) but not for a line fitted
// from the scan's lowest beta (~1e-16).
TEST(FitCorpus, CompetingRisksEdgeCasesFitFiniteAndExact) {
  const core::CompetingRisksModel model;
  for (const num::Vector& truth :
       {num::Vector{1.0, 0.05, 0.0}, num::Vector{0.9, 0.3, 0.0}, num::Vector{1.0, 40.0, 0.002},
        num::Vector{1.0, 500.0, 0.001}, num::Vector{0.97, 0.0, 0.001}}) {
    std::vector<double> v(40);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = model.evaluate(static_cast<double>(i), truth);
    }
    const data::PerformanceSeries series("edge", std::move(v));
    SCOPED_TRACE("beta " + std::to_string(truth[1]) + ", gamma " + std::to_string(truth[2]));
    const core::FitResult fit = core::fit_model(model, series, 0);
    ASSERT_TRUE(fit.success());
    for (double p : fit.parameters()) EXPECT_TRUE(std::isfinite(p));
    EXPECT_LT(fit.sse, 1e-18);
  }
}

// ---- Live refits: warm vs cold on the same window --------------------------

struct ReplayCount {
  int cold = 0;
  int warm = 0;
  int warm_worse = 0;
};

/// Replays `values` (one sample per time step, after a flat nominal prefix)
/// through a Monitor with batched refits, drained after every sample. A twin
/// StreamState with the same config sees the same samples and forecasts, so
/// its event window is the one each refit fitted; every refit is compared
/// with a cold fit of that window.
void replay(const std::string& name, std::span<const double> values, ReplayCount* count) {
  live::MonitorOptions options;
  options.stream.cusum.baseline = 12;
  options.stream.cusum.threshold_sigmas = 8.0;
  options.model = "competing-risks";
  options.refit_every = 4;
  options.batched_refits = true;
  live::Monitor monitor(options);
  live::StreamState twin(name, options.stream);

  constexpr std::size_t kPrefix = 16;
  std::uint64_t refits = 0;
  std::uint64_t warm_refits = 0;
  for (std::size_t i = 0; i < kPrefix + values.size(); ++i) {
    const double t = static_cast<double>(i);
    const double value = i < kPrefix ? 1.0 : values[i - kPrefix];
    monitor.ingest(name, t, value);
    twin.push(t, value);
    if (monitor.refit_batch(1) == 0) continue;

    const live::StreamSnapshot snap = monitor.snapshot(name);
    ASSERT_EQ(snap.refits, refits + 1) << "at sample " << i;
    ASSERT_EQ(snap.event_ordinal, twin.event_ordinal());
    const bool warm = snap.warm_refits > warm_refits;
    refits = snap.refits;
    warm_refits = snap.warm_refits;
    twin.set_predicted_recovery(snap.predicted_recovery_time);

    const core::FitResult cold = core::fit_model(options.model, twin.event_series(), 0);
    ASSERT_TRUE(cold.success());
    if (!warm) {
      // The cold refit is this very fit: proof the twin's window is the one.
      ++count->cold;
      EXPECT_EQ(snap.parameters, cold.parameters()) << name << " at sample " << i;
      continue;
    }
    ++count->warm;
    if (worse_than(snap.fit_sse, cold.sse, 1e-6)) {
      ++count->warm_worse;
      ADD_FAILURE() << name << " at sample " << i << ": warm SSE " << snap.fit_sse
                    << " vs cold " << cold.sse;
    }
  }
}

// Pinned: warm competing-risks refits more than 1e-6 relative above a cold
// fit of the same window. May only fall.
constexpr int kCompetingRisksWorseWarmRefits = 0;

TEST(FitCorpus, CompetingRisksWarmRefitsMatchColdFits) {
  ReplayCount count;
  for (const data::RecessionDataset& ds : data::recession_catalog()) {
    replay(std::string(ds.series.name()), ds.series.values(), &count);
  }
  int generated = 0;
  for (const data::PerformanceSeries& window : generated_corpus(30, 2031)) {
    replay("generated-" + std::to_string(++generated), window.values(), &count);
  }
  RecordProperty("cold_refits", count.cold);
  RecordProperty("warm_refits", count.warm);
  // The comparison must not be vacuous.
  EXPECT_GE(count.cold, 20);
  EXPECT_GE(count.warm, 200);
  EXPECT_LE(count.warm_worse, kCompetingRisksWorseWarmRefits);
}

}  // namespace
}  // namespace prm
