#include "numerics/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace prm::num {
namespace {

TEST(ErfInv, RoundTripsThroughErf) {
  for (double x : {-0.999, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(std::erf(erf_inv(x)), x, 1e-13) << "x = " << x;
  }
}

TEST(ErfInv, KnownValues) {
  // erf(1) = 0.8427007929497149.
  EXPECT_NEAR(erf_inv(0.8427007929497149), 1.0, 1e-10);
  EXPECT_DOUBLE_EQ(erf_inv(0.0), 0.0);
  // Odd symmetry.
  EXPECT_NEAR(erf_inv(-0.3), -erf_inv(0.3), 1e-15);
}

TEST(ErfInv, BoundaryAndDomain) {
  EXPECT_TRUE(std::isinf(erf_inv(1.0)));
  EXPECT_TRUE(std::isinf(erf_inv(-1.0)));
  EXPECT_LT(erf_inv(-1.0), 0.0);
  EXPECT_THROW(erf_inv(1.5), std::domain_error);
  EXPECT_THROW(erf_inv(-1.5), std::domain_error);
}

TEST(ErfcInv, ConsistentWithErfInv) {
  for (double x : {0.01, 0.3, 1.0, 1.7, 1.99}) {
    EXPECT_NEAR(erfc_inv(x), erf_inv(1.0 - x), 1e-12);
  }
  EXPECT_THROW(erfc_inv(-0.1), std::domain_error);
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-12);
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12) << "p = " << p;
  }
}

TEST(NormalQuantile, CriticalValue95) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
}

TEST(NormalQuantile, Domain) {
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
  EXPECT_THROW(normal_quantile(-0.1), std::domain_error);
  EXPECT_THROW(normal_quantile(1.1), std::domain_error);
}

TEST(GammaP, IntegerShapeMatchesPoissonSum) {
  // P(k, x) = 1 - sum_{j<k} x^j e^-x / j! for integer k.
  const double x = 2.5;
  const int k = 3;
  double poisson_tail = 0.0;
  double term = std::exp(-x);
  for (int j = 0; j < k; ++j) {
    poisson_tail += term;
    term *= x / (j + 1);
  }
  EXPECT_NEAR(gamma_p(k, x), 1.0 - poisson_tail, 1e-12);
}

TEST(GammaP, HalfShapeMatchesErf) {
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.1, 0.5, 1.0, 4.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(GammaP, ComplementarityAndLimits) {
  for (double a : {0.3, 1.0, 2.7, 10.0}) {
    for (double x : {0.01, 0.5, 3.0, 20.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_q(2.0, 0.0), 1.0);
  EXPECT_NEAR(gamma_p(2.0, 1e3), 1.0, 1e-12);
}

TEST(GammaP, Domain) {
  EXPECT_THROW(gamma_p(0.0, 1.0), std::domain_error);
  EXPECT_THROW(gamma_p(1.0, -1.0), std::domain_error);
}

}  // namespace
}  // namespace prm::num
