#include "core/fitting.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/bathtub.hpp"
#include "core/mixture.hpp"
#include "data/recessions.hpp"

namespace prm::core {
namespace {

// Synthetic data generated exactly from a model must be recovered with
// near-zero SSE.
data::PerformanceSeries exact_quadratic_series(std::size_t n) {
  const QuadraticBathtubModel m;
  const num::Vector truth{1.0, -0.03, 0.0006};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = m.evaluate(static_cast<double>(i), truth);
  return data::PerformanceSeries("exact-quad", std::move(v));
}

data::PerformanceSeries exact_competing_risks_series(std::size_t n) {
  const CompetingRisksModel m;
  const num::Vector truth{1.0, 0.2, 0.0008};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = m.evaluate(static_cast<double>(i), truth);
  return data::PerformanceSeries("exact-cr", std::move(v));
}

TEST(FitModel, RecoversExactQuadraticData) {
  const QuadraticBathtubModel m;
  const FitResult fit = fit_model(m, exact_quadratic_series(40), 4);
  EXPECT_TRUE(fit.success());
  EXPECT_LT(fit.sse, 1e-12);
  EXPECT_NEAR(fit.parameters()[0], 1.0, 1e-4);
  EXPECT_NEAR(fit.parameters()[1], -0.03, 1e-4);
  EXPECT_NEAR(fit.parameters()[2], 0.0006, 1e-5);
}

TEST(FitModel, RecoversExactCompetingRisksData) {
  const CompetingRisksModel m;
  const num::Vector truth{1.0, 0.2, 0.0008};
  std::vector<double> v(40);
  for (std::size_t i = 0; i < 40; ++i) v[i] = m.evaluate(static_cast<double>(i), truth);
  const FitResult fit = fit_model(m, data::PerformanceSeries("exact-cr", std::move(v)), 4);
  EXPECT_TRUE(fit.success());
  EXPECT_LT(fit.sse, 1e-10);
  EXPECT_NEAR(fit.parameters()[0], truth[0], 1e-3);
  EXPECT_NEAR(fit.parameters()[1], truth[1], 1e-2);
  EXPECT_NEAR(fit.parameters()[2], truth[2], 1e-4);
}

TEST(FitModel, RecoversExactMixtureData) {
  const MixtureModel m({Family::kWeibull, Family::kExponential, RecoveryTrend::kLogarithmic});
  const num::Vector truth{14.0, 2.2, 0.05, 0.28};
  std::vector<double> v(48);
  for (std::size_t i = 0; i < 48; ++i) v[i] = m.evaluate(static_cast<double>(i), truth);
  const FitResult fit = fit_model(m, data::PerformanceSeries("exact-mix", std::move(v)), 5);
  EXPECT_TRUE(fit.success());
  EXPECT_LT(fit.sse, 1e-8);
}

TEST(FitModel, ParametersRespectBounds) {
  // Fit all registry models to a real dataset; every parameter must satisfy
  // its declared bound.
  const auto& ds = data::recession("1990-93");
  for (const std::string& name : ModelRegistry::instance().names()) {
    const ModelPtr model = ModelRegistry::instance().create(name);
    const FitResult fit = fit_model(*model, ds.series, ds.holdout);
    const auto bounds = model->parameter_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      switch (bounds[i].kind) {
        case opt::BoundKind::kPositive:
          EXPECT_GT(fit.parameters()[i], 0.0) << name << " param " << i;
          break;
        case opt::BoundKind::kNegative:
          EXPECT_LT(fit.parameters()[i], 0.0) << name << " param " << i;
          break;
        default:
          break;
      }
    }
  }
}

TEST(FitModel, HoldoutWindowExcludedFromFit) {
  // Corrupt the holdout window: the fitted parameters must not change.
  const auto base = exact_quadratic_series(40);
  std::vector<double> corrupted(base.values().begin(), base.values().end());
  for (std::size_t i = 36; i < 40; ++i) corrupted[i] += 10.0;
  const QuadraticBathtubModel m;
  const FitResult clean = fit_model(m, base, 4);
  const FitResult dirty =
      fit_model(m, data::PerformanceSeries("corrupt", std::move(corrupted)), 4);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(clean.parameters()[i], dirty.parameters()[i], 1e-6);
  }
}

TEST(FitModel, ByNameMatchesByInstance) {
  const auto& ds = data::recession("1981-83");
  const FitResult by_name = fit_model("quadratic", ds.series, ds.holdout);
  const QuadraticBathtubModel m;
  const FitResult by_inst = fit_model(m, ds.series, ds.holdout);
  EXPECT_NEAR(by_name.sse, by_inst.sse, 1e-12);
}

TEST(FitModel, DeterministicAcrossRuns) {
  const auto& ds = data::recession("2001-05");
  const FitResult a = fit_model("mix-wei-wei-log", ds.series, ds.holdout);
  const FitResult b = fit_model("mix-wei-wei-log", ds.series, ds.holdout);
  EXPECT_EQ(a.parameters(), b.parameters());
  EXPECT_DOUBLE_EQ(a.sse, b.sse);
}

TEST(FitModel, RejectsOversizedHoldout) {
  const auto s = exact_quadratic_series(10);
  const QuadraticBathtubModel m;
  EXPECT_THROW(fit_model(m, s, 10), std::invalid_argument);
  EXPECT_THROW(fit_model(m, s, 8), std::invalid_argument);  // 2 < 3 params + 1
}

TEST(FitResult, WindowsAndPredictions) {
  const auto s = exact_quadratic_series(20);
  const QuadraticBathtubModel m;
  const FitResult fit = fit_model(m, s, 5);
  EXPECT_EQ(fit.fit_count(), 15u);
  EXPECT_EQ(fit.fit_window().size(), 15u);
  EXPECT_EQ(fit.holdout_window().size(), 5u);
  EXPECT_EQ(fit.predictions().size(), 20u);
  EXPECT_EQ(fit.fit_predictions().size(), 15u);
  EXPECT_EQ(fit.holdout_predictions().size(), 5u);
  // Consistency: predictions() splits into the two windows.
  const auto all = fit.predictions();
  const auto tail = fit.holdout_predictions();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(all[15 + i], tail[i]);
}

TEST(FitResult, ConstructorValidation) {
  const auto s = exact_quadratic_series(10);
  auto model = std::shared_ptr<const ResilienceModel>(new QuadraticBathtubModel());
  EXPECT_THROW(FitResult(nullptr, {1.0, -0.1, 0.1}, s, 2), std::invalid_argument);
  EXPECT_THROW(FitResult(model, {1.0}, s, 2), std::invalid_argument);
  EXPECT_THROW(FitResult(model, {1.0, -0.1, 0.1}, s, 10), std::invalid_argument);
}

TEST(FitModel, WeightsDownweightCorruptedSamples) {
  // Exact quadratic data with one gross outlier; zero-weighting that sample
  // must recover the clean parameters.
  const QuadraticBathtubModel m;
  const num::Vector truth{1.0, -0.03, 0.0006};
  std::vector<double> v(30);
  for (std::size_t i = 0; i < 30; ++i) v[i] = m.evaluate(static_cast<double>(i), truth);
  v[12] += 0.5;
  const data::PerformanceSeries corrupted("w", std::move(v));

  FitOptions weighted;
  weighted.weights.assign(27, 1.0);  // fit window = 30 - 3
  weighted.weights[12] = 0.0;
  const FitResult clean_fit = fit_model(m, corrupted, 3, weighted);
  EXPECT_NEAR(clean_fit.parameters()[0], truth[0], 1e-6);
  EXPECT_NEAR(clean_fit.parameters()[1], truth[1], 1e-6);
  EXPECT_NEAR(clean_fit.parameters()[2], truth[2], 1e-7);

  // Unweighted fit is pulled by the outlier.
  const FitResult pulled = fit_model(m, corrupted, 3);
  EXPECT_GT(std::fabs(pulled.parameters()[0] - truth[0]), 1e-3);
}

TEST(FitModel, UniformWeightsMatchUnweighted) {
  const auto& ds = data::recession("1990-93");
  FitOptions uniform;
  uniform.weights.assign(ds.series.size() - ds.holdout, 2.5);  // any constant
  const FitResult a = fit_model("quadratic", ds.series, ds.holdout, uniform);
  const FitResult b = fit_model("quadratic", ds.series, ds.holdout);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.parameters()[i], b.parameters()[i], 1e-6 * std::fabs(b.parameters()[i]));
  }
}

TEST(FitModel, WeightValidation) {
  const auto& ds = data::recession("1990-93");
  FitOptions wrong_size;
  wrong_size.weights.assign(10, 1.0);
  EXPECT_THROW(fit_model("quadratic", ds.series, ds.holdout, wrong_size),
               std::invalid_argument);
  FitOptions negative;
  negative.weights.assign(ds.series.size() - ds.holdout, 1.0);
  negative.weights[0] = -1.0;
  EXPECT_THROW(fit_model("quadratic", ds.series, ds.holdout, negative),
               std::invalid_argument);
}

TEST(FitModel, WarmStartRefitMatchesColdFitAtAFractionOfTheWork) {
  // Cold fit on the first 30 samples, then a warm refit on the full series
  // seeded from the cold parameters: the incremental path live::Monitor uses.
  // Competing risks under Huber loss, which keeps the full start set: for the
  // plain SSE the cold fit runs one exact variable-projection start (as the
  // quadratic runs its one exact guess), leaving the warm path nothing to
  // save. On exact data the Huber optimum is the least-squares one.
  const data::PerformanceSeries series = exact_competing_risks_series(40);
  FitOptions huber;
  huber.loss = opt::LossKind::kHuber;
  const FitResult cold = fit_model("competing-risks", series.head(30), 0, huber);
  ASSERT_TRUE(cold.success());

  FitOptions warm_opts = huber;
  warm_opts.warm_start = cold.parameters();
  const FitResult warm = fit_model("competing-risks", series, 0, warm_opts);
  EXPECT_TRUE(warm.success());
  EXPECT_LT(warm.sse, 1e-10);
  EXPECT_NEAR(warm.parameters()[0], 1.0, 1e-3);

  const FitResult cold_full = fit_model("competing-risks", series, 0, huber);
  EXPECT_LT(warm.starts_tried, cold_full.starts_tried);
  EXPECT_NEAR(warm.sse, cold_full.sse, 1e-8);
}

TEST(FitModel, StartPolicyFollowsTheObjective) {
  // The quadratic's one exact guess is the plain SSE's optimum; a weighted
  // or Huber fit adds one sampled start, since its optimum may lie off the
  // guess's face; Cauchy is not convex and keeps the full set (the guess, 2
  // jittered copies, 8 sampled). Competing risks' one exact start is the
  // least-squares optimum, so only the plain unweighted SSE runs it alone.
  const auto& ds = data::recession("1990-93");
  const auto starts = [&ds](const char* model, opt::LossKind loss, bool weighted) {
    FitOptions options;
    options.loss = loss;
    if (weighted) options.weights.assign(ds.series.size() - ds.holdout, 2.0);
    const FitResult fit = fit_model(model, ds.series, ds.holdout, options);
    EXPECT_TRUE(fit.success()) << model;
    return fit.starts_tried;
  };
  EXPECT_EQ(starts("quadratic", opt::LossKind::kSquared, false), 1);
  EXPECT_EQ(starts("quadratic", opt::LossKind::kSquared, true), 2);
  EXPECT_EQ(starts("quadratic", opt::LossKind::kHuber, false), 2);
  EXPECT_EQ(starts("quadratic", opt::LossKind::kCauchy, false), 11);
  EXPECT_EQ(starts("competing-risks", opt::LossKind::kSquared, false), 1);
  EXPECT_EQ(starts("competing-risks", opt::LossKind::kSquared, true), 11);
  EXPECT_EQ(starts("competing-risks", opt::LossKind::kHuber, false), 11);
  EXPECT_EQ(starts("competing-risks", opt::LossKind::kCauchy, false), 11);
}

TEST(FitModel, CompetingRisksRefitDeclinesTheWarmStart) {
  // Under the plain SSE the exact start is cheaper than LM from the previous
  // solution and never worse, so a refit is its window's cold fit, bit for bit.
  const data::PerformanceSeries series = exact_competing_risks_series(40);
  FitOptions warm;
  warm.warm_start = num::Vector{0.5, 1.0, 1e-12};  // a poor seed, parked at a bound
  const FitResult refit = fit_model("competing-risks", series, 0, warm);
  const FitResult cold = fit_model("competing-risks", series, 0);
  EXPECT_EQ(refit.parameters(), cold.parameters());
  EXPECT_EQ(refit.starts_tried, 1);
  EXPECT_LT(refit.sse, 1e-10);
}

TEST(FitModel, WarmStartDimensionMismatchThrows) {
  FitOptions opts;
  opts.warm_start = num::Vector{1.0};  // quadratic has three parameters
  EXPECT_THROW(fit_model("quadratic", exact_quadratic_series(30), 0, opts),
               std::invalid_argument);
}

TEST(FitModel, WarmStartOutsideBoundsIsClippedNotFatal) {
  const data::PerformanceSeries series = exact_quadratic_series(30);
  const FitResult reference = fit_model("quadratic", series, 0);
  FitOptions opts;
  // Violate the declared bounds on purpose (e.g. a non-positive component
  // where the model demands positive): the fit must clip and proceed.
  opts.warm_start = reference.parameters();
  (*opts.warm_start)[0] = -5.0;
  opts.multistart.warm_sampled_starts = 4;  // safety net for the bad seed
  const FitResult fit = fit_model("quadratic", series, 0, opts);
  EXPECT_TRUE(fit.success());
}

// P(t) = 1 - k^{-t/710}, k > 0: the curve saturates at 1 as k -> inf, and
// pow(inf, -t/710) is 0, so at k = inf every residual of a step to 1 is
// exactly 0. With u = log k that is 1 - e^{-t u/710}, whose Gauss-Newton
// steps along u are ~710/t long: LM walks u past log(DBL_MAX) ~ 709.8, where
// k = e^u overflows.
class SaturatingModel final : public ResilienceModel {
 public:
  std::string name() const override { return "saturating"; }
  std::string description() const override { return "P(t) = 1 - k^(-t/710)"; }
  std::size_t num_parameters() const override { return 1; }
  std::vector<std::string> parameter_names() const override { return {"k"}; }
  std::vector<opt::Bound> parameter_bounds() const override {
    return {opt::Bound::positive()};
  }
  double evaluate(double t, const num::Vector& p) const override {
    return 1.0 - std::pow(p[0], -t / 710.0);
  }
  std::vector<num::Vector> initial_guesses(const data::PerformanceSeries&) const override {
    return {{std::exp(1.0)}};
  }
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries&) const override {
    return {{1.5}, {10.0}};
  }
  void tune_multistart(opt::MultistartOptions& options, const FitObjective&) const override {
    options.sampled_starts = 0;
    options.jitter_per_start = 0;
    options.polish_with_nelder_mead = false;
  }
  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<SaturatingModel>(*this);
  }
};

TEST(FitModel, StepToAnInfiniteParameterIsRejected) {
  // A step to 1 at t = 1..20: the optimum is the limit k -> inf. A step that
  // overflows k leaves every residual finite (0), so only fit_model's
  // finite-parameter guard keeps LM from ending on k = inf, which success()
  // refuses.
  std::vector<double> times(20);
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = static_cast<double>(i + 1);
  const data::PerformanceSeries step("step", times, std::vector<double>(times.size(), 1.0));
  const FitResult fit = fit_model(SaturatingModel(), step, 0);
  ASSERT_EQ(fit.parameters().size(), 1u);
  EXPECT_TRUE(std::isfinite(fit.parameters()[0])) << fit.parameters()[0];
  EXPECT_GT(fit.parameters()[0], 1e300);
  EXPECT_TRUE(fit.success());
}

TEST(FitModel, FuzzedSeriesNeverCrash) {
  // Random-walk garbage in, finite diagnostics (or clean failure) out.
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> step(-0.05, 0.05);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> v(20);
    v[0] = 1.0;
    for (std::size_t i = 1; i < 20; ++i) {
      v[i] = std::max(0.01, v[i - 1] + step(rng));
    }
    const data::PerformanceSeries garbage("fuzz", std::move(v));
    for (const char* name : {"quadratic", "competing-risks", "mix-wei-exp-log"}) {
      const FitResult fit = fit_model(name, garbage, 2);
      EXPECT_TRUE(std::isfinite(fit.sse) ||
                  fit.stop_reason == opt::StopReason::kNumericalFailure)
          << name << " rep " << rep;
    }
  }
}

TEST(FitModel, SseMatchesResidualsOfReturnedParameters) {
  const auto& ds = data::recession("1974-76");
  const FitResult fit = fit_model("competing-risks", ds.series, ds.holdout);
  const auto obs = fit.fit_window();
  double sse = 0.0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double e = obs.value(i) - fit.evaluate(obs.time(i));
    sse += e * e;
  }
  EXPECT_NEAR(fit.sse, sse, 1e-10 * std::max(1.0, sse));
}

}  // namespace
}  // namespace prm::core
