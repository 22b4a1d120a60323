#include "optimize/levenberg_marquardt.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace prm::opt {
namespace {

// Linear least squares: LM must land on the exact normal-equation solution
// in very few iterations.
ResidualProblem linear_problem() {
  ResidualProblem p;
  p.num_parameters = 2;
  p.num_residuals = 4;
  p.residuals = [](const num::Vector& x) {
    // Fit y = a + b t to exact data from a = 1, b = 2.
    num::Vector r(4);
    for (int i = 0; i < 4; ++i) {
      r[i] = (1.0 + 2.0 * i) - (x[0] + x[1] * i);
    }
    return r;
  };
  return p;
}

TEST(LevenbergMarquardt, SolvesLinearProblemExactly) {
  const OptimizeResult r = levenberg_marquardt(linear_problem(), {0.0, 0.0});
  EXPECT_TRUE(r.converged());
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-8);
  EXPECT_NEAR(r.parameters[1], 2.0, 1e-8);
  EXPECT_NEAR(r.cost, 0.0, 1e-16);
}

TEST(LevenbergMarquardt, RecoversExponentialDecayParameters) {
  // y = A exp(-k t) sampled exactly; recover (A, k) from a poor start.
  const double A = 2.5;
  const double k = 0.7;
  ResidualProblem p;
  p.num_parameters = 2;
  p.num_residuals = 20;
  p.residuals = [A, k](const num::Vector& x) {
    num::Vector r(20);
    for (int i = 0; i < 20; ++i) {
      const double t = 0.25 * i;
      r[i] = A * std::exp(-k * t) - x[0] * std::exp(-x[1] * t);
    }
    return r;
  };
  const OptimizeResult r = levenberg_marquardt(p, {1.0, 0.1});
  EXPECT_TRUE(r.converged());
  EXPECT_NEAR(r.parameters[0], A, 1e-6);
  EXPECT_NEAR(r.parameters[1], k, 1e-6);
}

TEST(LevenbergMarquardt, MinimizesRosenbrockAsResiduals) {
  // Rosenbrock = ||r||^2 with r = (10(y - x^2), 1 - x): global minimum (1,1).
  ResidualProblem p;
  p.num_parameters = 2;
  p.num_residuals = 2;
  p.residuals = [](const num::Vector& x) {
    return num::Vector{10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]};
  };
  LmOptions opts;
  opts.max_iterations = 500;
  const OptimizeResult r = levenberg_marquardt(p, {-1.2, 1.0}, opts);
  EXPECT_TRUE(r.usable());
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-6);
  EXPECT_NEAR(r.parameters[1], 1.0, 1e-6);
}

TEST(LevenbergMarquardt, UsesAnalyticJacobianWhenProvided) {
  ResidualProblem p = linear_problem();
  int jacobian_calls = 0;
  p.jacobian = [&jacobian_calls](const num::Vector&) {
    ++jacobian_calls;
    num::Matrix j(4, 2);
    for (int i = 0; i < 4; ++i) {
      j(i, 0) = -1.0;
      j(i, 1) = -static_cast<double>(i);
    }
    return j;
  };
  const OptimizeResult r = levenberg_marquardt(p, {5.0, -3.0});
  EXPECT_TRUE(r.converged());
  EXPECT_GT(jacobian_calls, 0);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-8);
}

TEST(LevenbergMarquardt, ReportsNumericalFailureOnNanResiduals) {
  ResidualProblem p;
  p.num_parameters = 1;
  p.num_residuals = 1;
  p.residuals = [](const num::Vector&) {
    return num::Vector{std::numeric_limits<double>::quiet_NaN()};
  };
  const OptimizeResult r = levenberg_marquardt(p, {1.0});
  EXPECT_EQ(r.stop_reason, StopReason::kNumericalFailure);
  EXPECT_FALSE(r.usable());
}

TEST(LevenbergMarquardt, StaysFiniteWhenResidualsBlowUpAwayFromStart) {
  // Residual is finite near 0 but NaN for |x| > 2: LM must reject bad steps.
  ResidualProblem p;
  p.num_parameters = 1;
  p.num_residuals = 2;
  p.residuals = [](const num::Vector& x) {
    if (std::fabs(x[0]) > 2.0) {
      return num::Vector{std::numeric_limits<double>::quiet_NaN(), 0.0};
    }
    return num::Vector{x[0] - 1.0, 0.5 * (x[0] - 1.0)};
  };
  const OptimizeResult r = levenberg_marquardt(p, {0.0});
  EXPECT_TRUE(r.usable());
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-6);
}

TEST(LevenbergMarquardt, RespectsIterationBudget) {
  ResidualProblem p;
  p.num_parameters = 2;
  p.num_residuals = 2;
  p.residuals = [](const num::Vector& x) {
    return num::Vector{10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]};
  };
  LmOptions opts;
  opts.max_iterations = 3;
  const OptimizeResult r = levenberg_marquardt(p, {-1.2, 1.0}, opts);
  EXPECT_LE(r.iterations, 3);
}

TEST(StopReason, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(StopReason::kConverged), "converged");
  EXPECT_STREQ(to_string(StopReason::kMaxIterations), "max-iterations");
  EXPECT_STREQ(to_string(StopReason::kStalled), "stalled");
  EXPECT_STREQ(to_string(StopReason::kNumericalFailure), "numerical-failure");
}

}  // namespace
}  // namespace prm::opt
