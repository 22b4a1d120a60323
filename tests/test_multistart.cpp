#include "optimize/multistart.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace prm::opt {
namespace {

TEST(LatinHypercube, PointsInsideBox) {
  const auto pts = latin_hypercube({-1.0, 0.0}, {1.0, 10.0}, 16, 7);
  ASSERT_EQ(pts.size(), 16u);
  for (const auto& p : pts) {
    EXPECT_GE(p[0], -1.0);
    EXPECT_LE(p[0], 1.0);
    EXPECT_GE(p[1], 0.0);
    EXPECT_LE(p[1], 10.0);
  }
}

TEST(LatinHypercube, StratifiedPerDimension) {
  // Exactly one sample per stratum in each dimension.
  const int n = 10;
  const auto pts = latin_hypercube({0.0}, {1.0}, n, 3);
  std::vector<int> counts(n, 0);
  for (const auto& p : pts) {
    const int cell = std::min(n - 1, static_cast<int>(p[0] * n));
    ++counts[cell];
  }
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(LatinHypercube, DeterministicForSameSeed) {
  const auto a = latin_hypercube({0.0, 0.0}, {1.0, 1.0}, 8, 99);
  const auto b = latin_hypercube({0.0, 0.0}, {1.0, 1.0}, 8, 99);
  EXPECT_EQ(a, b);
  const auto c = latin_hypercube({0.0, 0.0}, {1.0, 1.0}, 8, 100);
  EXPECT_NE(a, c);
}

TEST(LatinHypercube, RejectsBadBox) {
  EXPECT_THROW(latin_hypercube({1.0}, {0.0}, 4, 1), std::invalid_argument);
  EXPECT_THROW(latin_hypercube({0.0, 0.0}, {1.0}, 4, 1), std::invalid_argument);
  EXPECT_TRUE(latin_hypercube({0.0}, {1.0}, 0, 1).empty());
}

// Two-basin least squares: r = min distance to one of two centers, with the
// global basin narrow so single-start LM from the origin lands in the wrong
// one.
ResidualProblem two_basin_problem() {
  ResidualProblem p;
  p.num_parameters = 1;
  p.num_residuals = 1;
  p.residuals = [](const num::Vector& x) {
    // f(x) = 1 - 0.5 exp(-(x-1)^2) - exp(-20 (x-6)^2); residual sqrt(f).
    const double f = 1.0 - 0.5 * std::exp(-(x[0] - 1.0) * (x[0] - 1.0)) -
                     0.999 * std::exp(-20.0 * (x[0] - 6.0) * (x[0] - 6.0));
    return num::Vector{std::sqrt(std::max(f, 0.0))};
  };
  return p;
}

TEST(Multistart, EscapesLocalBasin) {
  MultistartOptions opts;
  opts.sampled_starts = 24;
  opts.jitter_per_start = 0;
  const MultistartResult r =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, opts);
  EXPECT_NEAR(r.best.parameters[0], 6.0, 0.05);
  EXPECT_GE(r.starts_tried, 25);
}

TEST(Multistart, SingleStartFindsOnlyLocal) {
  MultistartOptions opts;
  opts.sampled_starts = 0;
  opts.jitter_per_start = 0;
  opts.polish_with_nelder_mead = false;
  const MultistartResult r =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {}, {}, opts);
  EXPECT_NEAR(r.best.parameters[0], 1.0, 0.1);  // trapped, by construction
}

TEST(Multistart, DeterministicForSameSeed) {
  MultistartOptions opts;
  opts.sampled_starts = 8;
  const auto r1 = multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, opts);
  const auto r2 = multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, opts);
  EXPECT_EQ(r1.best.parameters, r2.best.parameters);
  EXPECT_DOUBLE_EQ(r1.best.cost, r2.best.cost);
}

TEST(Multistart, CountsFailedStarts) {
  ResidualProblem p;
  p.num_parameters = 1;
  p.num_residuals = 1;
  p.residuals = [](const num::Vector& x) {
    // NaN for x < 0 -- starts there fail outright.
    if (x[0] < 0.0) return num::Vector{std::numeric_limits<double>::quiet_NaN()};
    return num::Vector{x[0] - 2.0};
  };
  MultistartOptions opts;
  opts.sampled_starts = 0;
  opts.jitter_per_start = 0;
  opts.polish_with_nelder_mead = false;
  const MultistartResult r =
      multistart_least_squares(p, {{-5.0}, {1.0}}, {}, {}, opts);
  EXPECT_EQ(r.starts_failed, 1);
  EXPECT_NEAR(r.best.parameters[0], 2.0, 1e-8);
}

TEST(Multistart, ThrowsWithoutAnyStarts) {
  MultistartOptions opts;
  opts.sampled_starts = 0;
  EXPECT_THROW(multistart_least_squares(two_basin_problem(), {}, {}, {}, opts),
               std::invalid_argument);
}

TEST(Multistart, SampledStartsRequireBox) {
  MultistartOptions opts;
  opts.sampled_starts = 4;
  EXPECT_THROW(multistart_least_squares(two_basin_problem(), {{1.0}}, {}, {}, opts),
               std::invalid_argument);
}

TEST(Multistart, WarmStartReplacesTheRegularStartSet) {
  // The regular start {1.0} would trap in the local basin; a warm seed near
  // the global optimum must win because the warm path ignores it entirely.
  MultistartOptions opts;
  opts.sampled_starts = 24;  // ignored on the warm path
  opts.warm_start = {5.9};
  opts.warm_jitter = 0;
  opts.warm_sampled_starts = 0;
  const MultistartResult r =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, opts);
  EXPECT_NEAR(r.best.parameters[0], 6.0, 0.05);
  EXPECT_EQ(r.starts_tried, 1);  // exactly the seed: no multistart cost
}

TEST(Multistart, WarmStartJitterAndSafetyStartsAreCounted) {
  MultistartOptions opts;
  opts.warm_start = {5.9};
  opts.warm_jitter = 3;
  opts.warm_sampled_starts = 4;
  const MultistartResult r =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, opts);
  EXPECT_EQ(r.starts_tried, 1 + 3 + 4);
  EXPECT_NEAR(r.best.parameters[0], 6.0, 0.05);
}

TEST(Multistart, WarmStartDimensionMismatchThrows) {
  MultistartOptions opts;
  opts.warm_start = {1.0, 2.0};  // problem has one parameter
  EXPECT_THROW(multistart_least_squares(two_basin_problem(), {{1.0}}, {}, {}, opts),
               std::invalid_argument);
}

TEST(Multistart, ColdPathUnchangedByWarmKnobs) {
  // With warm_start empty, warm_jitter/warm_sampled_starts are inert and the
  // RNG stream matches a default-configured run exactly.
  MultistartOptions cold;
  cold.sampled_starts = 8;
  MultistartOptions with_knobs = cold;
  with_knobs.warm_jitter = 7;
  with_knobs.warm_sampled_starts = 5;
  const auto r1 = multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, cold);
  const auto r2 =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, with_knobs);
  EXPECT_EQ(r1.best.parameters, r2.best.parameters);
  EXPECT_DOUBLE_EQ(r1.best.cost, r2.best.cost);
  EXPECT_EQ(r1.starts_tried, r2.starts_tried);
}

TEST(Multistart, NelderMeadPolishNeverWorsens) {
  MultistartOptions with_polish;
  with_polish.sampled_starts = 4;
  with_polish.polish_with_nelder_mead = true;
  MultistartOptions without_polish = with_polish;
  without_polish.polish_with_nelder_mead = false;
  const auto a =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, with_polish);
  const auto b =
      multistart_least_squares(two_basin_problem(), {{1.0}}, {0.0}, {8.0}, without_polish);
  EXPECT_LE(a.best.cost, b.best.cost + 1e-12);
}

TEST(LatinHypercube, SinglePointLandsInsideTheBox) {
  // count = 1 means one stratum spanning the whole box: still in bounds,
  // still deterministic.
  const auto pts = latin_hypercube({-2.0, 5.0}, {2.0, 6.0}, 1, 11);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GE(pts[0][0], -2.0);
  EXPECT_LE(pts[0][0], 2.0);
  EXPECT_GE(pts[0][1], 5.0);
  EXPECT_LE(pts[0][1], 6.0);
  EXPECT_EQ(pts, latin_hypercube({-2.0, 5.0}, {2.0, 6.0}, 1, 11));
}

TEST(LatinHypercube, DegenerateBoxCollapsesToThePoint) {
  // lo == hi in one dimension: every sample must sit exactly on it while the
  // other dimension stays stratified.
  const int n = 8;
  const auto pts = latin_hypercube({0.5, 0.0}, {0.5, 1.0}, n, 21);
  ASSERT_EQ(pts.size(), static_cast<std::size_t>(n));
  std::vector<int> counts(n, 0);
  for (const auto& p : pts) {
    EXPECT_EQ(p[0], 0.5);
    ++counts[std::min(n - 1, static_cast<int>(p[1] * n))];
  }
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(LatinHypercube, HighDimensionalStratificationHolds) {
  // One sample per stratum must hold in EVERY dimension simultaneously.
  const int n = 16;
  const std::size_t dims = 12;
  const auto pts =
      latin_hypercube(num::Vector(dims, 0.0), num::Vector(dims, 1.0), n, 77);
  ASSERT_EQ(pts.size(), static_cast<std::size_t>(n));
  for (std::size_t d = 0; d < dims; ++d) {
    std::vector<int> counts(n, 0);
    for (const auto& p : pts) {
      ++counts[std::min(n - 1, static_cast<int>(p[d] * n))];
    }
    for (int c : counts) EXPECT_EQ(c, 1) << "dimension " << d;
  }
}

TEST(MultistartStartPoints, JitterDependsOnlyOnIndexAndOptions) {
  // The per-index seeding contract: a jittered start's coordinates are a
  // function of (options.seed ^ its position) only. Identical configs agree.
  MultistartOptions options;
  options.jitter_per_start = 3;
  options.sampled_starts = 4;
  const std::vector<num::Vector> starts{{1.0, 2.0}, {-1.0, 0.5}};
  const num::Vector lo{-5.0, -5.0};
  const num::Vector hi{5.0, 5.0};
  const auto a = multistart_start_points(starts, lo, hi, options, 2);
  const auto b = multistart_start_points(starts, lo, hi, options, 2);
  EXPECT_EQ(a, b);
  // Layout: caller starts first, then their jittered copies, then LHS.
  ASSERT_EQ(a.size(), starts.size() + starts.size() * 3 + 4);
  EXPECT_EQ(a[0], starts[0]);
  EXPECT_EQ(a[1], starts[1]);
}

TEST(MultistartStartPoints, ChangingTheSampledCountLeavesEarlierPointsAlone) {
  // Appending LHS points must not disturb caller starts or jittered copies:
  // they draw from per-index streams, not one shared RNG that LHS would
  // advance. This is what makes the parallel reduction bit-stable.
  MultistartOptions small;
  small.jitter_per_start = 2;
  small.sampled_starts = 2;
  MultistartOptions large = small;
  large.sampled_starts = 9;

  const std::vector<num::Vector> starts{{0.3, -0.7}};
  const num::Vector lo{-2.0, -2.0};
  const num::Vector hi{2.0, 2.0};
  const auto a = multistart_start_points(starts, lo, hi, small, 2);
  const auto b = multistart_start_points(starts, lo, hi, large, 2);
  const std::size_t prefix = 1 + 2;  // caller start + its jittered copies
  ASSERT_GE(a.size(), prefix);
  ASSERT_GE(b.size(), prefix);
  for (std::size_t i = 0; i < prefix; ++i) EXPECT_EQ(a[i], b[i]) << "index " << i;
}

TEST(MultistartStartPoints, DistinctIndicesDrawDistinctJitter) {
  // Two jittered copies of the SAME seed point must differ: each index gets
  // its own stream, not a replay of the first.
  MultistartOptions options;
  options.jitter_per_start = 2;
  options.sampled_starts = 0;
  const std::vector<num::Vector> starts{{1.0, 1.0}};
  const auto pts = multistart_start_points(starts, {}, {}, options, 2);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_NE(pts[1], pts[2]);
  EXPECT_NE(pts[1], pts[0]);
}

TEST(Multistart, ParallelKnobDoesNotChangeTheWinner) {
  // Same rosenbrock-style problem as EscapesLocalBasin, run at several
  // thread counts: identical best parameters and cost, bit for bit.
  ResidualProblem problem;
  problem.num_parameters = 2;
  problem.num_residuals = 2;
  problem.residuals = [](const num::Vector& p) {
    return num::Vector{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
  };
  MultistartOptions serial;
  serial.sampled_starts = 6;
  const auto baseline =
      multistart_least_squares(problem, {{-1.5, 2.0}}, {-3.0, -3.0}, {3.0, 3.0}, serial);
  for (const int threads : {2, 8}) {
    MultistartOptions opts;
    opts.sampled_starts = 6;
    opts.threads = threads;
    const auto got = multistart_least_squares(problem, {{-1.5, 2.0}}, {-3.0, -3.0},
                                              {3.0, 3.0}, opts);
    EXPECT_EQ(got.best.cost, baseline.best.cost) << "threads = " << threads;
    EXPECT_EQ(got.best.parameters, baseline.best.parameters);
    EXPECT_EQ(got.starts_tried, baseline.starts_tried);
    EXPECT_EQ(got.starts_failed, baseline.starts_failed);
  }
}

TEST(Multistart, PolishRunsOnceOnTheLmWinner) {
  // With the polish on, the result is exactly a polish-off multistart whose
  // winner then gets one Nelder-Mead polish (the driver's 0.02 initial
  // step), at every thread count. LM and the polish are both capped short of
  // convergence, so a polish of a losing start would land somewhere else.
  ResidualProblem problem;
  problem.num_parameters = 2;
  problem.num_residuals = 2;
  problem.residuals = [](const num::Vector& p) {
    return num::Vector{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
  };
  for (const int threads : {1, 4}) {
    MultistartOptions polished;
    polished.sampled_starts = 6;
    polished.lm.max_iterations = 2;
    polished.nm.max_iterations = 40;
    polished.threads = threads;
    MultistartOptions lm_only = polished;
    lm_only.polish_with_nelder_mead = false;
    const auto got = multistart_least_squares(problem, {{-1.5, 2.0}}, {-3.0, -3.0},
                                              {3.0, 3.0}, polished);
    const auto winner = multistart_least_squares(problem, {{-1.5, 2.0}}, {-3.0, -3.0},
                                                 {3.0, 3.0}, lm_only);

    NelderMeadOptions nm = polished.nm;
    nm.initial_step = 0.02;
    const OptimizeResult polish =
        nelder_mead_least_squares(problem, winner.best.parameters, nm);
    ASSERT_LT(polish.cost, winner.best.cost) << "threads = " << threads;
    EXPECT_EQ(got.best.parameters, polish.parameters) << "threads = " << threads;
    EXPECT_EQ(got.best.cost, polish.cost);
    EXPECT_EQ(got.best.function_evaluations,
              polish.function_evaluations + winner.best.function_evaluations);
    EXPECT_EQ(got.best.iterations, polish.iterations + winner.best.iterations);
    EXPECT_EQ(got.starts_tried, winner.starts_tried);
  }
}

TEST(Multistart, FunctionEvaluationsSumEveryStartAndThePolish) {
  // The result's count is the whole fit's: each start's LM evaluations plus
  // the polish's, at any thread count. best.function_evaluations stays the
  // winner's.
  ResidualProblem problem;
  problem.num_parameters = 2;
  problem.num_residuals = 2;
  problem.residuals = [](const num::Vector& p) {
    return num::Vector{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
  };
  MultistartOptions opts;
  opts.sampled_starts = 6;
  opts.lm.max_iterations = 2;
  opts.nm.max_iterations = 40;
  const std::vector<num::Vector> caller = {{-1.5, 2.0}};
  const num::Vector lo = {-3.0, -3.0};
  const num::Vector hi = {3.0, 3.0};

  MultistartOptions lm_only = opts;
  lm_only.polish_with_nelder_mead = false;
  const auto winner = multistart_least_squares(problem, caller, lo, hi, lm_only);
  int lm_evals = 0;
  for (const num::Vector& start : multistart_start_points(caller, lo, hi, opts, 2)) {
    lm_evals += levenberg_marquardt(problem, start, opts.lm).function_evaluations;
  }
  EXPECT_EQ(winner.function_evaluations, lm_evals);
  EXPECT_GT(winner.function_evaluations, winner.best.function_evaluations);

  NelderMeadOptions nm = opts.nm;
  nm.initial_step = 0.02;
  const int polish_evals =
      nelder_mead_least_squares(problem, winner.best.parameters, nm).function_evaluations;
  for (const int threads : {1, 4}) {
    opts.threads = threads;
    const auto got = multistart_least_squares(problem, caller, lo, hi, opts);
    EXPECT_EQ(got.function_evaluations, lm_evals + polish_evals) << "threads = " << threads;
  }
}

}  // namespace
}  // namespace prm::opt
