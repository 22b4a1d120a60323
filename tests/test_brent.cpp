#include "optimize/brent.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace prm::opt {
namespace {

TEST(BrentMinimize, FindsParabolaMinimum) {
  const auto f = [](double x) { return (x - 1.7) * (x - 1.7) + 0.5; };
  const BrentResult r = brent_minimize(f, 0.0, 5.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.7, 1e-7);
  EXPECT_NEAR(r.fx, 0.5, 1e-12);
}

TEST(BrentMinimize, HandlesReversedBounds) {
  const auto f = [](double x) { return std::fabs(x + 2.0); };
  const BrentResult r = brent_minimize(f, 3.0, -5.0);
  EXPECT_NEAR(r.x, -2.0, 1e-6);
}

TEST(BrentMinimize, MinimumAtBoundary) {
  const auto f = [](double x) { return x; };
  const BrentResult r = brent_minimize(f, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.0, 1e-6);
}

TEST(BrentMinimize, NonSmoothUnimodal) {
  const auto f = [](double x) { return std::fabs(x - 0.3) + 1.0; };
  const BrentResult r = brent_minimize(f, -1.0, 1.0);
  EXPECT_NEAR(r.x, 0.3, 1e-6);
}

TEST(BrentMinimize, SmoothMinimumTakesFewerEvaluationsThanGoldenSection) {
  // Golden section shrinks [0, 5] by 0.618 per evaluation, so reaching a
  // bracket of 4e-10 (Brent's final bracket at x_tol = 1e-10) takes
  // log(4e-10 / 5) / log(0.618) + 2 = 50 evaluations. Parabolic steps
  // converge superlinearly on a smooth minimum.
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return std::exp(x - 2.0) - x + 0.25 * std::sin(x);
  };
  const BrentResult r = brent_minimize(f, 0.0, 5.0);
  const int golden = static_cast<int>(std::ceil(std::log(4e-10 / 5.0) / std::log(0.6180339887498949))) + 2;
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.evaluations, calls);
  EXPECT_LT(calls, golden / 2);
  // f'(x) = e^(x-2) - 1 + 0.25 cos(x) = 0 near x = 2.07.
  EXPECT_NEAR(std::exp(r.x - 2.0) - 1.0 + 0.25 * std::cos(r.x), 0.0, 1e-7);
}

TEST(ScanThenBrent, FindsGlobalMinimumAmongSeveral) {
  // Two basins: local at x ~ 2 (depth 1), global at x ~ -1.5 (depth 2).
  const auto f = [](double x) {
    return -2.0 * std::exp(-(x + 1.5) * (x + 1.5)) -
           1.0 * std::exp(-(x - 2.0) * (x - 2.0) / 0.25);
  };
  const BrentResult r = scan_then_brent(f, -5.0, 5.0, 256);
  EXPECT_NEAR(r.x, -1.5, 1e-3);
}

TEST(ScanThenBrent, WShapedCurveGlobalTrough) {
  // Mimics a W-shaped resilience curve: second dip is deeper.
  const auto f = [](double x) {
    return 1.0 - 0.4 * std::exp(-(x - 1.0) * (x - 1.0) * 4.0) -
           0.6 * std::exp(-(x - 3.0) * (x - 3.0) * 4.0);
  };
  const BrentResult r = scan_then_brent(f, 0.0, 5.0, 512);
  EXPECT_NEAR(r.x, 3.0, 1e-2);
}

TEST(ScanThenBrent, RejectsTooFewSamples) {
  EXPECT_THROW(scan_then_brent([](double x) { return x * x; }, 0.0, 1.0, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace prm::opt
