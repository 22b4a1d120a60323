#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>

#include "numerics/differentiate.hpp"
#include "numerics/integrate.hpp"
#include "stats/normal.hpp"

namespace prm::stats {
namespace {

// ---- Distribution-interface contract, parameterized over the members ----

struct DistCase {
  std::string label;
  std::shared_ptr<const Distribution> dist;
  double probe_lo;
  double probe_hi;
};

// Print a case by its label: gtest's default raw-byte dump includes heap
// addresses, which would make the listed test names differ between builds.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.label; }

class DistributionContract : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionContract, CdfIsMonotoneNondecreasingWithin01) {
  const auto& d = *GetParam().dist;
  double prev = -1e-9;
  for (int i = 0; i <= 50; ++i) {
    const double x = GetParam().probe_lo +
                     (GetParam().probe_hi - GetParam().probe_lo) * i / 50.0;
    const double c = d.cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST_P(DistributionContract, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-8) << GetParam().label << " p=" << p;
  }
}

TEST_P(DistributionContract, PdfIsDerivativeOfCdf) {
  const auto& d = *GetParam().dist;
  for (int i = 1; i < 5; ++i) {
    const double x = GetParam().probe_lo +
                     (GetParam().probe_hi - GetParam().probe_lo) * i / 5.0;
    const double fd = num::derivative_richardson([&d](double t) { return d.cdf(t); }, x);
    EXPECT_NEAR(d.pdf(x), fd, 1e-6 * std::max(1.0, d.pdf(x))) << GetParam().label;
  }
}

TEST_P(DistributionContract, PdfIntegratesToCdfDifference) {
  const auto& d = *GetParam().dist;
  const double a = GetParam().probe_lo;
  const double b = GetParam().probe_hi;
  const double integral =
      num::adaptive_simpson([&d](double x) { return d.pdf(x); }, a, b, 1e-11).value;
  EXPECT_NEAR(integral, d.cdf(b) - d.cdf(a), 1e-8) << GetParam().label;
}

TEST_P(DistributionContract, SurvivalComplementsCdf) {
  const auto& d = *GetParam().dist;
  const double mid = 0.5 * (GetParam().probe_lo + GetParam().probe_hi);
  EXPECT_NEAR(d.cdf(mid) + d.survival(mid), 1.0, 1e-12);
}

TEST_P(DistributionContract, HazardIsPdfOverSurvival) {
  const auto& d = *GetParam().dist;
  const double mid = 0.5 * (GetParam().probe_lo + GetParam().probe_hi);
  EXPECT_NEAR(d.hazard(mid), d.pdf(mid) / d.survival(mid), 1e-10);
}

TEST_P(DistributionContract, MeanMatchesNumericIntegral) {
  const auto& d = *GetParam().dist;
  // E[X] = integral x f(x); integrate far into the tail.
  const double hi = d.quantile(0.999999);
  const double lo = std::min(0.0, GetParam().probe_lo);
  const auto integrand = [&d](double x) { return x * d.pdf(x); };
  const double mean_num = num::adaptive_simpson(integrand, lo, hi, 1e-11).value;
  EXPECT_NEAR(mean_num, d.mean(), 2e-3 * std::max(1.0, std::fabs(d.mean())))
      << GetParam().label;
}

TEST_P(DistributionContract, CloneIsIndependentEqualValue) {
  const auto& d = *GetParam().dist;
  const auto c = d.clone();
  EXPECT_EQ(c->name(), d.name());
  EXPECT_DOUBLE_EQ(c->cdf(1.0), d.cdf(1.0));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DistributionContract,
    ::testing::Values(DistCase{"normal", std::make_shared<Normal>(1.0, 2.0), -7.0, 9.0}),
    [](const ::testing::TestParamInfo<DistCase>& info) { return info.param.label; });

// ---- Family-specific facts ----

TEST(Normal, StandardFacts) {
  const Normal n(0.0, 1.0);
  EXPECT_NEAR(n.cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(n.quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(n.pdf(0.0), 0.3989422804014327, 1e-14);
}

TEST(Normal, CriticalValueHelper) {
  EXPECT_NEAR(normal_critical_value(0.05), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_critical_value(0.01), 2.5758293035489004, 1e-8);
  EXPECT_THROW(normal_critical_value(0.0), std::domain_error);
  EXPECT_THROW(normal_critical_value(1.0), std::domain_error);
}

}  // namespace
}  // namespace prm::stats
