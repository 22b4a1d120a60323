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

/// The objective fit_model minimizes on `fit`, as a residual problem over
/// the model's internal coordinates: residuals scaled by sqrt(w_i) (empty
/// weights: 1), then whitened for `loss`, so that its cost is
/// sum rho(sqrt(w_i) r_i).
opt::ResidualProblem objective_problem(const core::ResilienceModel& model,
                                       const opt::ParameterTransform& transform,
                                       const data::PerformanceSeries& fit,
                                       const std::vector<double>& weights,
                                       opt::LossKind loss) {
  const auto sqrt_w = [&weights](std::size_t i) {
    return weights.empty() ? 1.0 : std::sqrt(weights[i]);
  };
  opt::ResidualProblem problem;
  problem.num_parameters = model.num_parameters();
  problem.num_residuals = fit.size();
  problem.residuals = [&model, &transform, &fit, sqrt_w](const num::Vector& u) {
    const num::Vector p = transform.to_external(u);
    num::Vector r(fit.size());
    model.eval_batch(fit.times(), p, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = (fit.value(i) - r[i]) * sqrt_w(i);
    return r;
  };
  problem.jacobian = [&model, &transform, &fit, sqrt_w](const num::Vector& u) {
    const num::Vector p = transform.to_external(u);
    const num::Vector chain = transform.dexternal_dinternal(u);
    num::Matrix j;
    model.gradient_batch(fit.times(), p, &j);
    for (std::size_t i = 0; i < j.rows(); ++i) {
      for (std::size_t c = 0; c < j.cols(); ++c) j(i, c) *= -chain[c] * sqrt_w(i);
    }
    return j;
  };
  return opt::make_robust_problem(std::move(problem), loss, core::FitOptions{}.loss_scale);
}

/// The cost of objective_problem at external parameters `p`,
/// sum rho(sqrt(w_i) r_i).
double objective_cost(const core::ResilienceModel& model, const data::PerformanceSeries& fit,
                      const num::Vector& p, const std::vector<double>& weights,
                      opt::LossKind loss) {
  num::Vector curve(fit.size());
  model.eval_batch(fit.times(), p, curve);
  double cost = 0.0;
  for (std::size_t i = 0; i < fit.size(); ++i) {
    const double r = (fit.value(i) - curve[i]) * (weights.empty() ? 1.0 : std::sqrt(weights[i]));
    cost += opt::loss_rho(loss, r, core::FitOptions{}.loss_scale);
  }
  return cost;
}

/// The broad reference: the default multistart options (the model's guesses,
/// 2 jittered copies of each, 8 Latin-hypercube starts, the Nelder-Mead
/// polish of the winner) over the objective fit_model minimizes, called
/// through opt::multistart_least_squares directly. Its starts run on the
/// task pool; the result is the same at any thread count. Returns the
/// external parameters of its winner.
num::Vector reference_fit(const core::ResilienceModel& model, const data::PerformanceSeries& fit,
                          const std::vector<double>& weights = {},
                          opt::LossKind loss = opt::LossKind::kSquared) {
  const opt::ParameterTransform transform(model.parameter_bounds());
  const opt::ResidualProblem problem = objective_problem(model, transform, fit, weights, loss);
  std::vector<num::Vector> starts;
  for (const num::Vector& g : model.initial_guesses(fit)) {
    starts.push_back(transform.to_internal(g));
  }
  const auto [lo, hi] = model.search_box(fit);
  num::Vector lo_int = transform.to_internal(lo);
  num::Vector hi_int = transform.to_internal(hi);
  // The negative-bound transform is order-reversing; normalize the box.
  for (std::size_t i = 0; i < lo_int.size(); ++i) {
    if (lo_int[i] > hi_int[i]) std::swap(lo_int[i], hi_int[i]);
  }
  opt::MultistartOptions options;
  options.threads = 0;
  const opt::MultistartResult ms =
      opt::multistart_least_squares(problem, starts, lo_int, hi_int, options);
  return transform.to_external(ms.best.parameters);
}

/// The plain SSE of reference_fit's winner.
double reference_sse(const core::ResilienceModel& model, const data::PerformanceSeries& fit) {
  return 2.0 * objective_cost(model, fit, reference_fit(model, fit), {}, opt::LossKind::kSquared);
}

struct CorpusCount {
  int windows = 0;
  int worse = 0;  ///< Windows more than 1e-9 relative above the reference.
  double worst_rel = 0.0;
  long evaluations = 0;  ///< Residual evaluations summed over the fits.
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
    count->evaluations += fit.function_evaluations;
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
  ::testing::Test::RecordProperty("evaluations", std::to_string(count.evaluations));
  ::testing::Test::RecordProperty("worst_relative_excess", worst.str());
}

// Pinned: windows whose single-start fit is more than 1e-9 relative above the
// reference. May only fall.
constexpr int kCompetingRisksWorseWindows = 0;
// Pinned work: LM residual evaluations over the 300 windows, confirming the
// exact start. May only fall.
constexpr long kCompetingRisksEvaluations = 722;

TEST(FitCorpus, CompetingRisksOneExactStartMatchesTheFullMultistart) {
  const core::CompetingRisksModel model;
  CorpusCount count;
  check_against_reference(model, generated_corpus(300, 2029), 1, &count);
  record(count);
  EXPECT_LE(count.worse, kCompetingRisksWorseWindows);
  EXPECT_LE(count.evaluations, kCompetingRisksEvaluations);
}

// Pinned: quadratic windows whose fit from the one exact sign-constrained
// least-squares start is more than 1e-9 relative above the reference. May
// only fall.
constexpr int kQuadraticWorseWindows = 0;
// Pinned work: LM residual evaluations of a fit whose unconstrained
// least-squares fit has the bathtub signs, where the start is the optimum
// and LM only confirms it. May only fall.
constexpr int kQuadraticInteriorEvaluations = 2;

TEST(FitCorpus, QuadraticExactStartMatchesTheFullMultistart) {
  const core::QuadraticBathtubModel model;
  std::vector<Window> corpus = generated_corpus(300, 2029);
  for (Window& window : recession_corpus()) corpus.push_back(std::move(window));
  CorpusCount count;
  check_against_reference(model, corpus, 1, &count);
  record(count);
  EXPECT_LE(count.worse, kQuadraticWorseWindows);

  int interior = 0;
  for (const Window& window : corpus) {
    const data::PerformanceSeries fit = window.series.head(window.series.size() - window.holdout);
    const num::Vector ls = core::QuadraticBathtubModel::linear_ls_fit(fit);
    if (!(ls[0] > 0.0 && ls[1] < 0.0 && ls[2] > 0.0)) continue;
    ++interior;
    EXPECT_LE(core::fit_model(model, fit, 0).function_evaluations,
              kQuadraticInteriorEvaluations)
        << window.series.name() << ", " << fit.size() << " samples";
  }
  ::testing::Test::RecordProperty("interior_windows", interior);
  EXPECT_GE(interior, 100);
}

// Pinned: quadratic fits under per-sample weights or Huber's loss that end
// more than 1e-9 relative above the reference's cost under the same
// objective. The windows are those of 900 generated ones whose unweighted
// fit breaks the bathtub signs, so the exact start lies on a face of the
// sign orthant while the weighted or robust optimum may lie on another face
// or inside. From the exact start alone, 10 weighted fits were worse. May
// only fall.
constexpr int kQuadraticWeightedOrHuberWorseWindows = 0;

TEST(FitCorpus, QuadraticWeightedAndHuberFitsOnFaceWindowsMatchTheFullMultistart) {
  const core::QuadraticBathtubModel model;
  int windows = 0;
  int worse = 0;
  for (const Window& window : generated_corpus(900, 2029)) {
    const data::PerformanceSeries& fit = window.series;
    const num::Vector ls = core::QuadraticBathtubModel::linear_ls_fit(fit);
    if (ls[0] > 0.0 && ls[1] < 0.0 && ls[2] > 0.0) continue;
    ++windows;
    // Three weightings over x = i / (n - 1) in [0, 1]: rising 1 -> 4,
    // rising e^{6x}, and 1 on the first half, 0.02 on the second; then the
    // unweighted Huber loss.
    const std::size_t n = fit.size();
    std::vector<std::vector<double>> weightings(3, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(n - 1);
      weightings[0][i] = 1.0 + 3.0 * x;
      weightings[1][i] = std::exp(6.0 * x);
      weightings[2][i] = x < 0.5 ? 1.0 : 0.02;
    }
    for (std::size_t k = 0; k <= weightings.size(); ++k) {
      core::FitOptions options;
      if (k < weightings.size()) {
        options.weights = weightings[k];
      } else {
        options.loss = opt::LossKind::kHuber;
      }
      const core::FitResult result = core::fit_model(model, fit, 0, options);
      ASSERT_TRUE(result.success()) << fit.name();
      const double cost =
          objective_cost(model, fit, result.parameters(), options.weights, options.loss);
      const double ref = objective_cost(
          model, fit, reference_fit(model, fit, options.weights, options.loss), options.weights,
          options.loss);
      if (worse_than(cost, ref, 1e-9)) {
        ++worse;
        ADD_FAILURE() << fit.name() << ", " << n << " samples, "
                      << (k < weightings.size() ? "weighting " + std::to_string(k) : "Huber")
                      << ": cost " << cost << " vs reference " << ref;
      }
    }
  }
  ::testing::Test::RecordProperty("windows", windows);
  EXPECT_GE(windows, 50);
  EXPECT_LE(worse, kQuadraticWeightedOrHuberWorseWindows);
}

// Exact quadratic data on the faces of the sign orthant, at t = 0..39: an
// L-shape (gamma -> 0), a recovery from a vertex at t = 0 (beta -> 0), and a
// concave decline whose unconstrained fit has gamma < 0, so the optimum is
// the line fit on the gamma = 0 face. The first two fit exactly (up to the
// clip of the zero coefficient at 1e-12, an SSE of ~2e-17); the third
// matches the line's SSE.
TEST(FitCorpus, QuadraticEdgeCasesFitOnTheFaces) {
  const core::QuadraticBathtubModel model;
  const auto series_of = [](double a, double b, double c) {
    std::vector<double> v(40);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double t = static_cast<double>(i);
      v[i] = a + b * t + c * t * t;
    }
    return data::PerformanceSeries("edge", std::move(v));
  };
  for (const num::Vector& truth : {num::Vector{1.0, -0.004, 0.0}, num::Vector{0.9, 0.0, 1e-4}}) {
    SCOPED_TRACE("beta " + std::to_string(truth[1]) + ", gamma " + std::to_string(truth[2]));
    const core::FitResult fit = core::fit_model(model, series_of(truth[0], truth[1], truth[2]), 0);
    ASSERT_TRUE(fit.success());
    EXPECT_EQ(fit.starts_tried, 1);
    EXPECT_LT(fit.sse, 1e-16);
  }
  const data::PerformanceSeries concave = series_of(1.0, -0.002, -2e-5);
  const core::FitResult fit = core::fit_model(model, concave, 0);
  ASSERT_TRUE(fit.success());
  // The least-squares line through the same samples.
  double st = 0.0, sy = 0.0, stt = 0.0, sty = 0.0;
  const double n = static_cast<double>(concave.size());
  for (std::size_t i = 0; i < concave.size(); ++i) {
    st += concave.time(i);
    sy += concave.value(i);
    stt += concave.time(i) * concave.time(i);
    sty += concave.time(i) * concave.value(i);
  }
  const double slope = (n * sty - st * sy) / (n * stt - st * st);
  const double intercept = (sy - slope * st) / n;
  double line_sse = 0.0;
  for (std::size_t i = 0; i < concave.size(); ++i) {
    const double r = concave.value(i) - intercept - slope * concave.time(i);
    line_sse += r * r;
  }
  EXPECT_FALSE(worse_than(fit.sse, line_sse, 1e-9)) << fit.sse << " vs line " << line_sse;
}

// Pinned: Exp-Exp windows whose fit from at most two exact starts is more
// than 1e-9 relative above the reference, over the three corpora. May only
// fall.
constexpr int kExpExpWorseWindows = 0;
// Pinned work: LM residual evaluations over the 607 windows. May only fall.
constexpr long kExpExpEvaluations = 11416;

TEST(FitCorpus, ExpExpExactStartsMatchTheFullMultistart) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("mix-exp-exp-log");
  CorpusCount count;
  check_against_reference(*model, generated_corpus(300, 2029), 2, &count);
  check_against_reference(*model, early_event_corpus(300, 2030), 2, &count);
  check_against_reference(*model, recession_corpus(), 2, &count);
  record(count);
  EXPECT_EQ(count.windows, 607);
  EXPECT_LE(count.worse, kExpExpWorseWindows);
  EXPECT_LE(count.evaluations, kExpExpEvaluations);
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
