// Property-based suites (parameterized sweeps) over invariants the system
// must hold for ALL inputs in a family, not just hand-picked cases:
//  * fitting invariance under shapes/seeds,
//  * metric identities,
//  * closed-form vs numeric agreement across random bathtub parameters,
//  * mixture evaluation invariants across all 4 x 4 family/trend combos.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/analysis.hpp"
#include "core/bathtub.hpp"
#include "core/metrics.hpp"
#include "core/mixture.hpp"
#include "core/predictor.hpp"
#include "data/generator.hpp"
#include "numerics/integrate.hpp"

namespace prm::core {
namespace {

// ---- Fit-quality property over generated scenarios ------------------------

struct ScenarioCase {
  data::RecessionShape shape;
  std::uint64_t seed;
};

// Without this, gtest prints the raw object bytes, padding included, and the
// discovered ctest names change from build to build.
void PrintTo(const ScenarioCase& c, std::ostream* os) {
  *os << data::to_string(c.shape) << "_seed" << c.seed;
}

class FitOverScenarios : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(FitOverScenarios, EasyShapesFitWellHardShapesDoNot) {
  const auto series = data::generate_shape(GetParam().shape, 48, GetParam().seed);
  const data::RecessionDataset ds{series, GetParam().shape, 5};
  const auto r = analyze("competing-risks", ds);
  ASSERT_TRUE(r.fit.success());
  if (GetParam().shape == data::RecessionShape::kV ||
      GetParam().shape == data::RecessionShape::kU) {
    EXPECT_GT(r.validation.r2_adj, 0.85) << "seed " << GetParam().seed;
  }
  if (GetParam().shape == data::RecessionShape::kW) {
    EXPECT_LT(r.validation.r2_adj, 0.85) << "seed " << GetParam().seed;
  }
}

TEST_P(FitOverScenarios, FitIsDeterministicPerScenario) {
  const auto series = data::generate_shape(GetParam().shape, 48, GetParam().seed);
  const data::RecessionDataset ds{series, GetParam().shape, 5};
  const auto a = analyze("quadratic", ds);
  const auto b = analyze("quadratic", ds);
  EXPECT_EQ(a.fit.parameters(), b.fit.parameters());
}

std::vector<ScenarioCase> scenario_cases() {
  std::vector<ScenarioCase> cases;
  for (auto shape : {data::RecessionShape::kV, data::RecessionShape::kU,
                     data::RecessionShape::kW}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) cases.push_back({shape, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ShapesAndSeeds, FitOverScenarios,
                         ::testing::ValuesIn(scenario_cases()),
                         [](const ::testing::TestParamInfo<ScenarioCase>& info) {
                           return std::string(data::to_string(info.param.shape)) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// ---- Metric identities over all models and datasets ----------------------

class MetricIdentities : public ::testing::TestWithParam<const char*> {};

TEST_P(MetricIdentities, HoldOnEveryRecession) {
  for (const auto& ds : data::recession_catalog()) {
    const auto fit = fit_model(GetParam(), ds.series, ds.holdout);
    const auto ms = predictive_metrics(fit);
    const auto find = [&ms](MetricKind k) {
      for (const auto& m : ms) {
        if (m.kind == k) return m;
      }
      throw std::logic_error("metric missing");
    };
    const double duration =
        ds.series.times().back() - ds.series.time(ds.series.size() - ds.holdout);
    const auto preserved = find(MetricKind::kPerformancePreserved);
    const auto lost = find(MetricKind::kPerformanceLost);
    const auto avg_p = find(MetricKind::kAvgPreserved);
    const auto avg_l = find(MetricKind::kAvgLost);
    const auto norm_p = find(MetricKind::kNormalizedAvgPreserved);
    const auto norm_l = find(MetricKind::kNormalizedAvgLost);

    // avg = integral / duration, for both actual and predicted.
    EXPECT_NEAR(avg_p.actual, preserved.actual / duration, 1e-10) << ds.series.name();
    EXPECT_NEAR(avg_p.predicted, preserved.predicted / duration, 1e-10);
    EXPECT_NEAR(avg_l.actual, lost.actual / duration, 1e-10);
    // normalized preserved + normalized lost = 1.
    EXPECT_NEAR(norm_p.actual + norm_l.actual, 1.0, 1e-10);
    EXPECT_NEAR(norm_p.predicted + norm_l.predicted, 1.0, 1e-10);
    // relative error is symmetric magnitude of Eq. 22.
    for (const auto& m : ms) EXPECT_GE(m.relative_error, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MetricIdentities,
                         ::testing::Values("quadratic", "competing-risks",
                                           "mix-wei-exp-log", "mix-wei-wei-log"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- Closed forms vs numerics over random bathtub parameters -------------

class BathtubClosedForms : public ::testing::TestWithParam<int> {};

TEST_P(BathtubClosedForms, AreaMatchesQuadratureForRandomParameters) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const QuadraticBathtubModel quad;
  const CompetingRisksModel cr;
  for (int rep = 0; rep < 10; ++rep) {
    const num::Vector pq{0.5 + u(rng), -0.08 * u(rng) - 1e-4, 0.002 * u(rng) + 1e-6};
    const num::Vector pc{0.5 + u(rng), 0.5 * u(rng) + 1e-3, 0.002 * u(rng) + 1e-6};
    const double t0 = 5.0 * u(rng);
    const double t1 = t0 + 1.0 + 40.0 * u(rng);
    const double qa = *quad.area_closed_form(pq, t0, t1);
    const double qn = num::adaptive_simpson(
        [&](double t) { return quad.evaluate(t, pq); }, t0, t1, 1e-11).value;
    EXPECT_NEAR(qa, qn, 1e-7 * std::max(1.0, std::fabs(qa)));
    const double ca = *cr.area_closed_form(pc, t0, t1);
    const double cn = num::adaptive_simpson(
        [&](double t) { return cr.evaluate(t, pc); }, t0, t1, 1e-11).value;
    EXPECT_NEAR(ca, cn, 1e-7 * std::max(1.0, std::fabs(ca)));
  }
}

TEST_P(BathtubClosedForms, RecoveryTimeSolvesTheCurveForRandomParameters) {
  std::mt19937_64 rng(GetParam() + 1000);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const QuadraticBathtubModel quad;
  const CompetingRisksModel cr;
  for (int rep = 0; rep < 10; ++rep) {
    const num::Vector pq{1.0, -0.06 * u(rng) - 0.01, 0.002 * u(rng) + 2e-4};
    const double tdq = *quad.trough_closed_form(pq);
    const double level = quad.evaluate(tdq, pq) +
                         0.8 * (pq[0] - quad.evaluate(tdq, pq)) * (0.2 + 0.7 * u(rng));
    const auto trq = quad.recovery_time_closed_form(pq, level, tdq);
    ASSERT_TRUE(trq.has_value());
    EXPECT_NEAR(quad.evaluate(*trq, pq), level, 1e-8);

    const num::Vector pc{1.0, 0.4 * u(rng) + 0.05, 0.002 * u(rng) + 2e-4};
    const double tdc = *cr.trough_closed_form(pc);
    const double vmin = cr.evaluate(tdc, pc);
    const double level_c = vmin + 0.5 * (1.0 - vmin) + 1e-4;
    const auto trc = cr.recovery_time_closed_form(pc, level_c, tdc);
    ASSERT_TRUE(trc.has_value());
    EXPECT_NEAR(cr.evaluate(*trc, pc), level_c, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BathtubClosedForms, ::testing::Values(11, 22, 33));

// ---- Mixture evaluation invariants over all combos ------------------------

struct ComboCase {
  Family f1;
  Family f2;
  RecoveryTrend trend;
};

class MixtureCombos : public ::testing::TestWithParam<ComboCase> {};

TEST_P(MixtureCombos, NominalAtOriginAndFiniteEverywhere) {
  const MixtureModel m({GetParam().f1, GetParam().f2, GetParam().trend});
  // Plausible positive parameters for any family layout.
  num::Vector p;
  for (std::size_t i = 0; i < m.num_parameters(); ++i) p.push_back(0.5 + 0.3 * i);
  EXPECT_DOUBLE_EQ(m.evaluate(0.0, p), 1.0);
  for (double t : {0.001, 0.5, 1.0, 5.0, 20.0, 47.0}) {
    const double v = m.evaluate(t, p);
    EXPECT_TRUE(std::isfinite(v)) << m.name() << " t=" << t;
  }
}

TEST_P(MixtureCombos, RecoveryTermVanishesBeforeHazard) {
  const MixtureModel m({GetParam().f1, GetParam().f2, GetParam().trend});
  num::Vector p;
  for (std::size_t i = 0; i < m.num_parameters(); ++i) p.push_back(1.0);
  // At t <= 0 both CDFs are 0: P = 1 regardless of trend/beta.
  EXPECT_DOUBLE_EQ(m.evaluate(0.0, p), 1.0);
  EXPECT_DOUBLE_EQ(m.evaluate(-3.0, p), 1.0);
}

TEST_P(MixtureCombos, AnalyticGradientMatchesFiniteDifference) {
  const MixtureModel m({GetParam().f1, GetParam().f2, GetParam().trend});
  // Representative positive parameters; beta (last) kept moderate.
  num::Vector p;
  for (std::size_t i = 0; i + 1 < m.num_parameters(); ++i) p.push_back(0.8 + 0.4 * i);
  p.push_back(0.05);
  for (double t : {0.5, 3.0, 11.0, 30.0}) {
    const num::Vector g = m.gradient(t, p);
    for (std::size_t j = 0; j < p.size(); ++j) {
      num::Vector pp = p;
      const double h = 1e-6 * std::max(1.0, std::fabs(p[j]));
      pp[j] += h;
      const double up = m.evaluate(t, pp);
      pp[j] -= 2.0 * h;
      const double dn = m.evaluate(t, pp);
      const double fd = (up - dn) / (2.0 * h);
      EXPECT_NEAR(g[j], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
          << m.name() << " t=" << t << " param " << j;
    }
  }
}

TEST_P(MixtureCombos, MetadataConsistent) {
  const MixtureModel m({GetParam().f1, GetParam().f2, GetParam().trend});
  EXPECT_EQ(m.parameter_names().size(), m.num_parameters());
  EXPECT_EQ(m.parameter_bounds().size(), m.num_parameters());
  EXPECT_EQ(m.num_parameters(),
            family_num_parameters(GetParam().f1) + family_num_parameters(GetParam().f2) + 1);
  const auto clone = m.clone();
  EXPECT_EQ(clone->name(), m.name());
}

std::vector<ComboCase> all_combos() {
  std::vector<ComboCase> out;
  for (Family f1 : {Family::kExponential, Family::kWeibull, Family::kLogNormal,
                    Family::kGamma}) {
    for (Family f2 : {Family::kExponential, Family::kWeibull}) {
      for (RecoveryTrend tr : {RecoveryTrend::kConstant, RecoveryTrend::kLinear,
                               RecoveryTrend::kExponential, RecoveryTrend::kLogarithmic}) {
        out.push_back({f1, f2, tr});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MixtureCombos, ::testing::ValuesIn(all_combos()),
                         [](const ::testing::TestParamInfo<ComboCase>& info) {
                           return std::string(to_string(info.param.f1)) + "_" +
                                  std::string(to_string(info.param.f2)) + "_" +
                                  std::string(to_string(info.param.trend));
                         });

// ---- Confidence-interval coverage over noise levels -----------------------

class CoverageOverNoise : public ::testing::TestWithParam<double> {};

TEST_P(CoverageOverNoise, Eq13BandCoversPlausibleFractionAtAnyNoise) {
  // Whatever the noise level, the 95% level band computed from the fit
  // residuals should cover a sane fraction of ALL samples on a fittable
  // shape. Pool several seeds to damp sampling noise.
  double total_ec = 0.0;
  int count = 0;
  for (std::uint64_t seed : {2u, 4u, 6u, 8u}) {
    data::ScenarioSpec spec;
    spec.shape = data::RecessionShape::kU;
    spec.noise = GetParam();
    spec.seed = seed;
    const auto series = data::generate_scenario(spec);
    const auto fit = fit_model("competing-risks", series, 5);
    const auto v = validate(fit);
    total_ec += v.ec;
    ++count;
  }
  const double mean_ec = total_ec / count;
  EXPECT_GE(mean_ec, 80.0) << "noise " << GetParam();
  EXPECT_LE(mean_ec, 100.0);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, CoverageOverNoise,
                         ::testing::Values(0.0005, 0.002, 0.008),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "sigma_" +
                                  std::to_string(static_cast<int>(info.param * 1e5));
                         });

// ---- Exact-recovery sweep over every paper model --------------------------
//
// For each registered model, generate noise-free data from known parameters
// and verify the fit pipeline recovers a curve indistinguishable from the
// generator (SSE ~ 0). This is the end-to-end identifiability check.

class ExactRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactRecovery, FitReproducesGeneratingCurve) {
  const ModelPtr model = ModelRegistry::instance().create(GetParam());
  // Generate from the model's own first initial guess on a template series
  // (guaranteed to satisfy the bounds and look like a resilience curve).
  const auto base = data::generate_shape(data::RecessionShape::kU, 48, 13);
  const num::Vector truth = model->initial_guesses(base).front();
  std::vector<double> v(48);
  for (std::size_t i = 0; i < 48; ++i) {
    v[i] = model->evaluate(static_cast<double>(i), truth);
  }
  const data::PerformanceSeries synthetic("from-truth", std::move(v));
  const FitResult fit = fit_model(*model, synthetic, 5);
  ASSERT_TRUE(fit.success()) << GetParam();
  EXPECT_LT(fit.sse, 1e-8) << GetParam();
  // Holdout predictions match the generating curve, not just the fit window.
  const auto tail = fit.holdout_predictions();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const double t = synthetic.time(fit.fit_count() + i);
    EXPECT_NEAR(tail[i], model->evaluate(t, truth), 1e-3) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredModels, ExactRecovery,
                         ::testing::Values("quadratic", "competing-risks",
                                           "mix-exp-exp-log", "mix-wei-exp-log",
                                           "mix-exp-wei-log", "mix-wei-wei-log"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- Quadratic: the exact guess reaches the one minimum --------------------
//
// Eq. 1 is linear in (alpha, beta, gamma), so the SSE is convex and its
// unconstrained minimum is the linear least-squares solution. Wherever that
// solution has the bathtub signs, the fit must reach its SSE from the
// model's one guess alone.

TEST(QuadraticFit, ExactGuessReachesTheLinearLeastSquaresMinimum) {
  const QuadraticBathtubModel model;
  std::mt19937_64 rng(2022);
  std::uniform_int_distribution<std::size_t> length(24, 240);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const data::RecessionShape shapes[] = {data::RecessionShape::kV, data::RecessionShape::kU,
                                         data::RecessionShape::kW, data::RecessionShape::kL};
  int in_sign_region = 0;
  for (int i = 0; i < 64; ++i) {
    data::ScenarioSpec spec;
    spec.shape = shapes[i % 4];
    spec.length = length(rng);
    spec.depth = 0.01 + 0.14 * unit(rng);
    spec.trough_at = 0.05 + 0.4 * unit(rng);
    spec.recovery_gain = spec.shape == data::RecessionShape::kL ? 0.0 : 0.06 * unit(rng);
    spec.noise = 0.003 * unit(rng);
    spec.seed = rng();
    const data::PerformanceSeries series = data::generate_scenario(spec);
    SCOPED_TRACE("window " + std::to_string(i) + ", " + std::to_string(spec.length) +
                 " samples");

    const FitResult fit = fit_model(model, series, 0);
    EXPECT_EQ(fit.starts_tried, 1);

    const num::Vector ls = QuadraticBathtubModel::linear_ls_fit(series);
    if (!(ls[0] > 0.0 && ls[1] < 0.0 && ls[2] > 0.0)) continue;
    ++in_sign_region;
    double ls_sse = 0.0;
    for (std::size_t k = 0; k < series.size(); ++k) {
      const double e = series.value(k) - model.evaluate(series.time(k), ls);
      ls_sse += e * e;
    }
    EXPECT_NEAR(fit.sse, ls_sse, 1e-12 * ls_sse);
  }
  // The SSE check must not be vacuous.
  EXPECT_GE(in_sign_region, 32);
}

// ---- Failure injection: fitting must degrade gracefully ------------------

TEST(FailureInjection, OutlierInFitWindowDoesNotBreakFit) {
  auto series = data::generate_shape(data::RecessionShape::kU, 48, 9);
  std::vector<double> v(series.values().begin(), series.values().end());
  v[20] += 0.5;  // gross outlier
  const data::PerformanceSeries corrupted("outlier", std::move(v));
  const auto fit = fit_model("competing-risks", corrupted, 5);
  EXPECT_TRUE(fit.success());
  EXPECT_TRUE(std::isfinite(fit.sse));
}

TEST(FailureInjection, ConstantSeriesFitsWithoutCrashing) {
  const data::PerformanceSeries flat("flat", std::vector<double>(30, 1.0));
  const auto fit = fit_model("quadratic", flat, 3);
  EXPECT_TRUE(std::isfinite(fit.sse));
  EXPECT_LT(fit.sse, 1e-6);  // flat data is representable (beta, gamma -> 0)
}

TEST(FailureInjection, VeryShortSeriesStillFits) {
  // Minimum viable: params + 1 samples in the fit window.
  const data::PerformanceSeries tiny("tiny", {1.0, 0.97, 0.95, 0.96, 0.98});
  const auto fit = fit_model("quadratic", tiny, 1);
  EXPECT_TRUE(fit.success());
}

TEST(FailureInjection, MonotoneDecliningSeriesYieldsFiniteFit) {
  // No recovery at all (still mid-recession): models must extrapolate
  // without numerical failure.
  std::vector<double> v(30);
  for (int i = 0; i < 30; ++i) v[i] = 1.0 - 0.004 * i;
  const data::PerformanceSeries declining("declining", std::move(v));
  for (const char* m : {"quadratic", "competing-risks", "mix-wei-exp-log"}) {
    const auto fit = fit_model(m, declining, 3);
    EXPECT_TRUE(std::isfinite(fit.sse)) << m;
  }
}

}  // namespace
}  // namespace prm::core
