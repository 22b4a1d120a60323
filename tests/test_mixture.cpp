#include "core/mixture.hpp"

#include "core/fitting.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.hpp"
#include "data/recessions.hpp"

namespace prm::core {
namespace {

TEST(FamilyCdf, MatchesDistributionClasses) {
  // The closed forms: Exponential 1 - e^{-lambda t}, Weibull 1 - e^{-(t/a)^k},
  // LogNormal erfc(-(ln t - mu) / (sigma sqrt 2)) / 2, and Gamma with integer
  // shape 2: 1 - e^{-x} (1 + x), x = t / scale.
  const double t = 2.3;
  EXPECT_NEAR(family_cdf(Family::kExponential, std::vector<double>{0.4}, t),
              1.0 - std::exp(-0.4 * t), 1e-14);
  EXPECT_NEAR(family_cdf(Family::kWeibull, std::vector<double>{3.0, 2.0}, t),
              1.0 - std::exp(-std::pow(t / 3.0, 2.0)), 1e-14);
  EXPECT_NEAR(family_cdf(Family::kLogNormal, std::vector<double>{0.5, 0.8}, t),
              0.5 * std::erfc(-(std::log(t) - 0.5) / (0.8 * std::sqrt(2.0))), 1e-14);
  const double x = t / 1.5;
  EXPECT_NEAR(family_cdf(Family::kGamma, std::vector<double>{2.0, 1.5}, t),
              1.0 - std::exp(-x) * (1.0 + x), 1e-12);
}

TEST(FamilyCdf, ZeroAtOrigin) {
  EXPECT_DOUBLE_EQ(family_cdf(Family::kWeibull, std::vector<double>{1.0, 2.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(family_cdf(Family::kExponential, std::vector<double>{1.0}, -1.0), 0.0);
}

TEST(FamilyCdf, WrongParameterCountThrows) {
  EXPECT_THROW(family_cdf(Family::kWeibull, std::vector<double>{1.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(family_cdf(Family::kExponential, std::vector<double>{1.0, 2.0}, 1.0),
               std::invalid_argument);
}

TEST(FamilyMeta, ParameterCounts) {
  EXPECT_EQ(family_num_parameters(Family::kExponential), 1u);
  EXPECT_EQ(family_num_parameters(Family::kWeibull), 2u);
  EXPECT_EQ(family_num_parameters(Family::kLogNormal), 2u);
  EXPECT_EQ(family_num_parameters(Family::kGamma), 2u);
}

TEST(MixtureModel, ParameterLayoutAndNames) {
  const MixtureModel m({Family::kWeibull, Family::kExponential, RecoveryTrend::kLogarithmic});
  EXPECT_EQ(m.num_parameters(), 4u);  // 2 + 1 + beta
  const auto names = m.parameter_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "F1.scale");
  EXPECT_EQ(names[1], "F1.shape");
  EXPECT_EQ(names[2], "F2.rate");
  EXPECT_EQ(names[3], "beta");
  EXPECT_EQ(m.parameter_bounds().size(), 4u);
}

TEST(MixtureModel, PaperLabelsAndNames) {
  EXPECT_EQ(MixtureModel({Family::kExponential, Family::kExponential,
                          RecoveryTrend::kLogarithmic}).paper_label(), "Exp-Exp");
  EXPECT_EQ(MixtureModel({Family::kWeibull, Family::kWeibull,
                          RecoveryTrend::kLogarithmic}).paper_label(), "Wei-Wei");
  EXPECT_EQ(MixtureModel({Family::kWeibull, Family::kExponential,
                          RecoveryTrend::kLogarithmic}).name(), "mix-wei-exp-log");
  EXPECT_EQ(MixtureModel({Family::kExponential, Family::kWeibull,
                          RecoveryTrend::kLinear}).name(), "mix-exp-wei-linear");
}

TEST(MixtureModel, EvaluateAtOriginIsExactlyNominal) {
  // P(0) = (1 - F1(0)) + a2(0) F2(0) = 1 for every family/trend combo.
  for (Family f1 : {Family::kExponential, Family::kWeibull, Family::kGamma}) {
    for (Family f2 : {Family::kExponential, Family::kWeibull}) {
      for (RecoveryTrend tr : {RecoveryTrend::kConstant, RecoveryTrend::kLinear,
                               RecoveryTrend::kExponential, RecoveryTrend::kLogarithmic}) {
        const MixtureModel m({f1, f2, tr});
        num::Vector p(m.num_parameters(), 1.0);
        EXPECT_DOUBLE_EQ(m.evaluate(0.0, p), 1.0);
      }
    }
  }
}

TEST(MixtureModel, EvaluateMatchesHandFormulaExpExpLog) {
  const MixtureModel m({Family::kExponential, Family::kExponential,
                        RecoveryTrend::kLogarithmic});
  const num::Vector p{0.05, 0.08, 0.3};  // lambda1, lambda2, beta
  const double t = 12.0;
  const double expected =
      std::exp(-0.05 * t) + 0.3 * std::log(t) * (1.0 - std::exp(-0.08 * t));
  EXPECT_NEAR(m.evaluate(t, p), expected, 1e-14);
}

TEST(MixtureModel, EvaluateMatchesHandFormulaWeiWeiLinear) {
  const MixtureModel m({Family::kWeibull, Family::kWeibull, RecoveryTrend::kLinear});
  const num::Vector p{10.0, 2.0, 20.0, 3.0, 0.01};
  const double t = 15.0;
  const double s1 = std::exp(-std::pow(t / 10.0, 2.0));
  const double f2 = 1.0 - std::exp(-std::pow(t / 20.0, 3.0));
  EXPECT_NEAR(m.evaluate(t, p), s1 + 0.01 * t * f2, 1e-14);
}

TEST(MixtureModel, ExponentialTrendUsesExpOfBetaT) {
  const MixtureModel m({Family::kExponential, Family::kExponential,
                        RecoveryTrend::kExponential});
  const num::Vector p{0.05, 0.08, 0.01};
  const double t = 10.0;
  const double expected =
      std::exp(-0.05 * t) + std::exp(0.01 * t) * (1.0 - std::exp(-0.08 * t));
  EXPECT_NEAR(m.evaluate(t, p), expected, 1e-14);
}

TEST(MixtureModel, TrendBasisValues) {
  EXPECT_DOUBLE_EQ(MixtureModel::trend_basis(RecoveryTrend::kConstant, 7.0), 1.0);
  EXPECT_DOUBLE_EQ(MixtureModel::trend_basis(RecoveryTrend::kLinear, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(MixtureModel::trend_basis(RecoveryTrend::kLogarithmic, std::exp(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(MixtureModel::trend_basis(RecoveryTrend::kLogarithmic, 0.0), 0.0);
  EXPECT_THROW(MixtureModel::trend_basis(RecoveryTrend::kExponential, 1.0), std::logic_error);
}

TEST(MixtureModel, WrongParameterCountThrows) {
  const MixtureModel m({Family::kExponential, Family::kExponential,
                        RecoveryTrend::kLogarithmic});
  EXPECT_THROW(m.evaluate(1.0, {0.1, 0.2}), std::invalid_argument);
}

TEST(MixtureModel, InitialGuessesSatisfyBoundsForAllPaperCombos) {
  const auto series = data::generate_shape(data::RecessionShape::kU, 48, 11);
  for (Family f1 : {Family::kExponential, Family::kWeibull}) {
    for (Family f2 : {Family::kExponential, Family::kWeibull}) {
      const MixtureModel m({f1, f2, RecoveryTrend::kLogarithmic});
      const auto guesses = m.initial_guesses(series);
      EXPECT_GE(guesses.size(), 1u);
      const auto bounds = m.parameter_bounds();
      for (const auto& g : guesses) {
        ASSERT_EQ(g.size(), m.num_parameters());
        for (std::size_t i = 0; i < g.size(); ++i) {
          if (bounds[i].kind == opt::BoundKind::kPositive) {
            EXPECT_GT(g[i], 0.0) << m.name() << " param " << i;
          }
        }
      }
    }
  }
}

TEST(MixtureModel, SearchBoxOrderedAndPositive) {
  const auto series = data::generate_shape(data::RecessionShape::kV, 48, 11);
  for (RecoveryTrend tr : {RecoveryTrend::kConstant, RecoveryTrend::kLinear,
                           RecoveryTrend::kExponential, RecoveryTrend::kLogarithmic}) {
    const MixtureModel m({Family::kWeibull, Family::kWeibull, tr});
    const auto [lo, hi] = m.search_box(series);
    ASSERT_EQ(lo.size(), m.num_parameters());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      EXPECT_LT(lo[i], hi[i]);
      EXPECT_GT(lo[i], 0.0);
    }
  }
}

TEST(MixtureModel, GradientDefaultMatchesFiniteDifferenceOfEvaluate) {
  const MixtureModel m({Family::kWeibull, Family::kExponential, RecoveryTrend::kLogarithmic});
  const num::Vector p{12.0, 2.0, 0.07, 0.25};
  const double t = 9.0;
  const num::Vector g = m.gradient(t, p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    num::Vector pp = p;
    const double h = 1e-6 * std::max(1.0, std::fabs(p[i]));
    pp[i] += h;
    const double up = m.evaluate(t, pp);
    pp[i] -= 2 * h;
    const double dn = m.evaluate(t, pp);
    EXPECT_NEAR(g[i], (up - dn) / (2 * h), 1e-5);
  }
}

TEST(MixtureModel, A1DecayAddsThetaParameter) {
  const MixtureModel base({Family::kWeibull, Family::kExponential,
                           RecoveryTrend::kLogarithmic, DegradationTrend::kConstant});
  const MixtureModel decay({Family::kWeibull, Family::kExponential,
                            RecoveryTrend::kLogarithmic, DegradationTrend::kExpDecay});
  EXPECT_EQ(decay.num_parameters(), base.num_parameters() + 1);
  EXPECT_EQ(decay.parameter_names().back(), "theta");
  EXPECT_EQ(decay.parameter_bounds().size(), decay.num_parameters());
  EXPECT_NE(decay.name(), base.name());
}

TEST(MixtureModel, A1DecayEvaluateMatchesHandFormula) {
  const MixtureModel m({Family::kExponential, Family::kExponential,
                        RecoveryTrend::kLogarithmic, DegradationTrend::kExpDecay});
  const num::Vector p{0.05, 0.08, 0.3, 0.02};  // lambda1, lambda2, beta, theta
  const double t = 12.0;
  const double expected = std::exp(-0.02 * t) * std::exp(-0.05 * t) +
                          0.3 * std::log(t) * (1.0 - std::exp(-0.08 * t));
  EXPECT_NEAR(m.evaluate(t, p), expected, 1e-14);
  // Eq. 7's limits: a1(0) (1 - F1(0)) = 1.
  EXPECT_DOUBLE_EQ(m.evaluate(0.0, p), 1.0);
}

TEST(MixtureModel, A1DecayVanishesAtInfinityUnlikeConstant) {
  // With beta ~ 0 (no recovery), the kExpDecay curve must head to 0 while
  // the kConstant one plateaus at S1 -- the Eq. 7 limit the paper waived.
  const num::Vector pc{40.0, 0.4, 0.01, 1e-9};        // Weibull k<1: slow S1 decay
  const num::Vector pd{40.0, 0.4, 0.01, 1e-9, 0.05};  // + theta
  const MixtureModel constant({Family::kWeibull, Family::kExponential,
                               RecoveryTrend::kConstant, DegradationTrend::kConstant});
  const MixtureModel decay({Family::kWeibull, Family::kExponential,
                            RecoveryTrend::kConstant, DegradationTrend::kExpDecay});
  EXPECT_GT(constant.evaluate(300.0, pc), 0.05);
  EXPECT_LT(decay.evaluate(300.0, pd), 0.01);
}

TEST(MixtureModel, A1DecayGradientMatchesFiniteDifference) {
  const MixtureModel m({Family::kWeibull, Family::kExponential,
                        RecoveryTrend::kLogarithmic, DegradationTrend::kExpDecay});
  const num::Vector p{12.0, 2.0, 0.07, 0.25, 0.015};
  for (double t : {0.5, 9.0, 30.0}) {
    const num::Vector g = m.gradient(t, p);
    for (std::size_t i = 0; i < p.size(); ++i) {
      num::Vector pp = p;
      const double h = 1e-6 * std::max(1.0, std::fabs(p[i]));
      pp[i] += h;
      const double up = m.evaluate(t, pp);
      pp[i] -= 2 * h;
      const double dn = m.evaluate(t, pp);
      EXPECT_NEAR(g[i], (up - dn) / (2 * h), 1e-5) << "t=" << t << " param " << i;
    }
  }
}

TEST(MixtureModel, A1DecayFitsRecessionsAtLeastAsWellInSample) {
  // One extra free parameter can only help (or tie) the in-sample SSE when
  // the optimizer does its job; theta ~ 0 recovers the constant model.
  const auto& ds = data::recession("1990-93");
  const MixtureModel base({Family::kWeibull, Family::kExponential,
                           RecoveryTrend::kLogarithmic, DegradationTrend::kConstant});
  const MixtureModel decay({Family::kWeibull, Family::kExponential,
                            RecoveryTrend::kLogarithmic, DegradationTrend::kExpDecay});
  const FitResult fb = fit_model(base, ds.series, ds.holdout);
  const FitResult fd = fit_model(decay, ds.series, ds.holdout);
  EXPECT_LE(fd.sse, fb.sse * 1.05);
}

TEST(MixtureModel, DescriptionMentionsFamilies) {
  const MixtureModel m({Family::kWeibull, Family::kExponential, RecoveryTrend::kLogarithmic});
  const std::string d = m.description();
  EXPECT_NE(d.find("wei"), std::string::npos);
  EXPECT_NE(d.find("exp"), std::string::npos);
}

TEST(MixtureModel, GammaFamilyGradientMatchesCentralDifference) {
  // The Gamma CDF reaches the dual-number overload of gamma_p, whose
  // x-derivative is the analytic gamma density -- cross-check the whole
  // chain against central differences of evaluate().
  const MixtureModel m({Family::kGamma, Family::kGamma, RecoveryTrend::kLinear});
  const num::Vector p{2.5, 6.0, 1.8, 14.0, 0.004};
  for (double t : {1.0, 8.0, 25.0}) {
    const num::Vector g = m.gradient(t, p);
    for (std::size_t i = 0; i < p.size(); ++i) {
      num::Vector pp = p;
      const double h = 1e-6 * std::max(1.0, std::fabs(p[i]));
      pp[i] += h;
      const double up = m.evaluate(t, pp);
      pp[i] -= 2 * h;
      const double dn = m.evaluate(t, pp);
      EXPECT_NEAR(g[i], (up - dn) / (2 * h), 1e-4) << "t=" << t << " param " << i;
    }
  }
}

TEST(MixtureModel, LogNormalFamilyGradientMatchesCentralDifference) {
  // Same cross-check through the normal_cdf dual overload (derivative phi).
  const MixtureModel m({Family::kLogNormal, Family::kWeibull,
                        RecoveryTrend::kExponential});
  const num::Vector p{2.0, 0.6, 20.0, 2.2, 0.01};
  for (double t : {0.5, 6.0, 18.0}) {
    const num::Vector g = m.gradient(t, p);
    for (std::size_t i = 0; i < p.size(); ++i) {
      num::Vector pp = p;
      const double h = 1e-6 * std::max(1.0, std::fabs(p[i]));
      pp[i] += h;
      const double up = m.evaluate(t, pp);
      pp[i] -= 2 * h;
      const double dn = m.evaluate(t, pp);
      EXPECT_NEAR(g[i], (up - dn) / (2 * h), 1e-5) << "t=" << t << " param " << i;
    }
  }
}

}  // namespace
}  // namespace prm::core
