// Corpus properties of the fit path: fixed, seeded sets of generated
// resilience windows (V/U/W/L/J/K windows of 24-240 samples, and early-event
// windows shaped like perfbench's fit_cold mixture requests) and the seven
// recessions, on which a model's start policy is checked against a broader
// reference solver, plus a live::Monitor replay that checks every warm refit
// against a cold fit of the same window.
//
// The pinned counts below may only fall. A change that raises one has made
// the fit worse on some window and must say which and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

#include "fixtures/fit_cold_301_319.hpp"

namespace prm {
namespace {

// ---- The corpora ------------------------------------------------------------

/// One fit: the series and the samples held out at its end.
struct Window {
  data::PerformanceSeries series;
  std::size_t holdout = 0;
};

/// `count` seeded windows cycling through the six letter shapes, with random
/// length (24-240), depth, trough position, recovery gain and noise; no
/// holdout.
std::vector<Window> generated_corpus(int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> length(24, 240);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const data::RecessionShape shapes[] = {data::RecessionShape::kV, data::RecessionShape::kU,
                                         data::RecessionShape::kW, data::RecessionShape::kL,
                                         data::RecessionShape::kJ, data::RecessionShape::kK};
  std::vector<Window> corpus;
  for (int i = 0; i < count; ++i) {
    data::ScenarioSpec spec;
    spec.shape = shapes[i % 6];
    spec.length = length(rng);
    spec.depth = 0.01 + 0.14 * unit(rng);
    spec.trough_at = 0.05 + 0.4 * unit(rng);
    spec.recovery_gain = spec.shape == data::RecessionShape::kL ? 0.0 : 0.06 * unit(rng);
    spec.noise = 0.003 * unit(rng);
    spec.seed = rng();
    corpus.push_back({data::generate_scenario(spec), 0});
  }
  return corpus;
}

/// `count` seeded early-event windows shaped like perfbench's fit_cold
/// mixture requests: V/U/W/L, 24-72 samples, depth 0.03-0.12, trough at
/// 0.18-0.35 of the window, recovery gain 0.005-0.04, noise 0.0004-0.0012,
/// and a tenth of the samples held out.
std::vector<Window> early_event_corpus(int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> length(24, 72);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const data::RecessionShape shapes[] = {data::RecessionShape::kV, data::RecessionShape::kU,
                                         data::RecessionShape::kW, data::RecessionShape::kL};
  std::vector<Window> corpus;
  for (int i = 0; i < count; ++i) {
    data::ScenarioSpec spec;
    spec.shape = shapes[i % 4];
    spec.length = length(rng);
    spec.depth = 0.03 + 0.09 * unit(rng);
    spec.trough_at = 0.18 + 0.17 * unit(rng);
    spec.recovery_gain = 0.005 + 0.035 * unit(rng);
    spec.noise = 0.0004 + 0.0008 * unit(rng);
    spec.seed = rng();
    corpus.push_back({data::generate_scenario(spec), spec.length / 10});
  }
  return corpus;
}

/// The seven recessions with the paper's holdouts.
std::vector<Window> recession_corpus() {
  std::vector<Window> corpus;
  for (const data::RecessionDataset& ds : data::recession_catalog()) {
    corpus.push_back({ds.series, ds.holdout});
  }
  return corpus;
}

/// True when `sse` exceeds `reference` by more than `rel` relative (with an
/// absolute floor, so two exact fits at ~1e-25 never count).
bool worse_than(double sse, double reference, double rel) {
  return sse > reference + rel * std::max(reference, 1e-20);
}

// ---- Exact starts vs the full multistart ----------------------------------

/// The broad reference: the default multistart options (the model's guesses,
/// 2 jittered copies of each, 8 Latin-hypercube starts, the Nelder-Mead
/// polish of the winner) over the same internal-coordinate SSE fit_model
/// minimizes, called through opt::multistart_least_squares directly. Its
/// starts run on the task pool; the result is the same at any thread count.
/// Returns the plain SSE.
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
  opt::MultistartOptions options;
  options.threads = 0;
  const opt::MultistartResult ms = opt::multistart_least_squares(
      problem, starts, transform.to_internal(lo), transform.to_internal(hi), options);
  const num::Vector r = problem.residuals(ms.best.parameters);
  double sse = 0.0;
  for (double e : r) sse += e * e;
  return sse;
}

struct CorpusCount {
  int windows = 0;
  int worse = 0;  ///< Windows more than 1e-9 relative above the reference.
  double worst_rel = 0.0;
};

/// Fits every window of `corpus` with fit_model, requires at most
/// `max_starts` LM starts, and counts the windows whose fit is worse than
/// reference_sse on the same fit window.
void check_against_reference(const core::ResilienceModel& model,
                             const std::vector<Window>& corpus, int max_starts,
                             CorpusCount* count) {
  for (const Window& window : corpus) {
    const core::FitResult fit = core::fit_model(model, window.series, window.holdout);
    ++count->windows;
    ASSERT_TRUE(fit.success()) << window.series.name() << ", " << window.series.size()
                               << " samples";
    EXPECT_LE(fit.starts_tried, max_starts) << window.series.name();
    const double ref = reference_sse(
        model, window.series.head(window.series.size() - window.holdout));
    count->worst_rel = std::max(count->worst_rel, (fit.sse - ref) / std::max(ref, 1e-20));
    if (worse_than(fit.sse, ref, 1e-9)) {
      ++count->worse;
      ADD_FAILURE() << window.series.name() << ", " << window.series.size()
                    << " samples: SSE " << fit.sse << " vs reference " << ref;
    }
  }
}

void record(const CorpusCount& count) {
  std::ostringstream worst;
  worst << count.worst_rel;
  ::testing::Test::RecordProperty("windows", count.windows);
  ::testing::Test::RecordProperty("worst_relative_excess", worst.str());
}

// Pinned: windows whose single-start fit is more than 1e-9 relative above the
// reference. May only fall.
constexpr int kCompetingRisksWorseWindows = 0;

TEST(FitCorpus, CompetingRisksOneExactStartMatchesTheFullMultistart) {
  const core::CompetingRisksModel model;
  CorpusCount count;
  check_against_reference(model, generated_corpus(300, 2029), 1, &count);
  record(count);
  EXPECT_LE(count.worse, kCompetingRisksWorseWindows);
}

// Pinned: Exp-Exp windows whose fit from at most two exact starts is more
// than 1e-9 relative above the reference, over the three corpora. May only
// fall.
constexpr int kExpExpWorseWindows = 0;

TEST(FitCorpus, ExpExpExactStartsMatchTheFullMultistart) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("mix-exp-exp-log");
  CorpusCount count;
  check_against_reference(*model, generated_corpus(300, 2029), 2, &count);
  check_against_reference(*model, early_event_corpus(300, 2030), 2, &count);
  check_against_reference(*model, recession_corpus(), 2, &count);
  record(count);
  EXPECT_EQ(count.windows, 607);
  EXPECT_LE(count.worse, kExpExpWorseWindows);
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

// Exact Exp-Exp data on the edges of the parameter space, at t = 0..39
// (t_min = 1): beta = 0, a pure L-shape, where beta* clamps to 0 in every
// row and the fit must not stall at beta's 1e-12 clip; a near-step recovery
// (l2 t_min = 200), whose curve the step-limit row (l2 t_min = 40)
// reproduces exactly; and a slow recovery on the ridge l2 -> 0, beta -> inf,
// with l2 below the scan's lowest rate (0.05 / t_max). Then perfbench's
// fit_cold request 319 at seed 301, whose optimum is the step limit: its
// fit must stay finite (the 14-start multistart returned a recovery rate of
// 1.04e26), be no worse than that multistart's SSE beyond the corpus
// tolerance (the two differ in the rounding of the SSE sum), and be
// bit-identical at 1 and 4 threads, as perfbench's check_fits requires.
TEST(FitCorpus, ExpExpEdgeCasesFitFiniteAndExact) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("mix-exp-exp-log");
  for (const num::Vector& truth : {num::Vector{0.05, 0.1, 0.0}, num::Vector{0.08, 200.0, 0.02},
                                   num::Vector{0.01, 1e-4, 10.0}}) {
    std::vector<double> v(40);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = model->evaluate(static_cast<double>(i), truth);
    }
    const data::PerformanceSeries series("edge", std::move(v));
    SCOPED_TRACE("l1 " + std::to_string(truth[0]) + ", l2 " + std::to_string(truth[1]) +
                 ", beta " + std::to_string(truth[2]));
    const core::FitResult fit = core::fit_model(*model, series, 0);
    ASSERT_TRUE(fit.success());
    for (double p : fit.parameters()) EXPECT_TRUE(std::isfinite(p));
    EXPECT_LE(fit.starts_tried, 2);
    EXPECT_LT(fit.sse, 1e-18);
  }

  const data::PerformanceSeries request(
      "cold-301-319", std::vector<double>(std::begin(fixtures::kFitCold301Request319Values),
                                          std::end(fixtures::kFitCold301Request319Values)));
  core::FitOptions serial;
  serial.multistart.threads = 1;
  core::FitOptions threaded;
  threaded.multistart.threads = 4;
  const core::FitResult a =
      core::fit_model(*model, request, fixtures::kFitCold301Request319Holdout, serial);
  const core::FitResult b =
      core::fit_model(*model, request, fixtures::kFitCold301Request319Holdout, threaded);
  ASSERT_TRUE(a.success());
  for (double p : a.parameters()) EXPECT_TRUE(std::isfinite(p));
  EXPECT_FALSE(worse_than(a.sse, fixtures::kFitCold301Request319MultistartSse, 1e-9))
      << "SSE " << a.sse;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sse), std::bit_cast<std::uint64_t>(b.sse));
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.parameters()[i]),
              std::bit_cast<std::uint64_t>(b.parameters()[i]));
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
void replay(const std::string& model, const std::string& name, std::span<const double> values,
            ReplayCount* count) {
  live::MonitorOptions options;
  options.stream.cusum.baseline = 12;
  options.stream.cusum.threshold_sigmas = 8.0;
  options.model = model;
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
      // A cold refit is this very fit: proof the twin's window is the one.
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

/// Replays the seven recessions and 30 generated events through `model`.
ReplayCount replay_corpus(const std::string& model) {
  ReplayCount count;
  for (const data::RecessionDataset& ds : data::recession_catalog()) {
    replay(model, std::string(ds.series.name()), ds.series.values(), &count);
  }
  int generated = 0;
  for (const Window& window : generated_corpus(30, 2031)) {
    replay(model, "generated-" + std::to_string(++generated), window.series.values(), &count);
  }
  ::testing::Test::RecordProperty("cold_refits", count.cold);
  ::testing::Test::RecordProperty("warm_refits", count.warm);
  return count;
}

// Pinned: warm competing-risks refits more than 1e-6 relative above a cold
// fit of the same window. May only fall.
constexpr int kCompetingRisksWorseWarmRefits = 0;

TEST(FitCorpus, CompetingRisksWarmRefitsMatchColdFits) {
  const ReplayCount count = replay_corpus("competing-risks");
  // The comparison must not be vacuous.
  EXPECT_GE(count.cold, 20);
  EXPECT_GE(count.warm, 200);
  EXPECT_LE(count.warm_worse, kCompetingRisksWorseWarmRefits);
}

// Pinned: warm Exp-Exp refits more than 1e-6 relative above a cold fit of
// the same window. May only fall. With the 14-start multistart and the warm
// seed this was 13 of 33 recession refits and 538 of 699 generated ones.
constexpr int kExpExpWorseWarmRefits = 0;

TEST(FitCorpus, ExpExpWarmRefitsMatchColdFits) {
  const ReplayCount count = replay_corpus("mix-exp-exp-log");
  EXPECT_GE(count.cold, 20);
  EXPECT_GE(count.warm, 200);
  EXPECT_LE(count.warm_worse, kExpExpWorseWarmRefits);
}

}  // namespace
}  // namespace prm
