// Levenberg-Marquardt nonlinear least squares.
//
// Classic damped Gauss-Newton with Marquardt diagonal scaling: each step
// solves (J^T J + mu * diag(J^T J)) dp = -J^T r via Cholesky, accepting the
// step when the gain ratio (actual vs predicted reduction) is positive.
// This is the solver behind every nonlinear model fit in prm (competing
// risks bathtub and all mixture families).
#pragma once

#include "optimize/problem.hpp"

namespace prm::opt {

struct LmOptions {
  int max_iterations = 200;
  double gradient_tol = 1e-10;   ///< Stop when ||J^T r||_inf below this.
  double step_tol = 1e-12;       ///< Stop when relative step below this.
  double cost_tol = 1e-14;       ///< Stop when relative cost reduction below this.
  double initial_mu = 1e-3;      ///< Initial damping (scaled by max diag of J^T J).
  double mu_increase = 4.0;      ///< Damping growth on rejected steps.
  double mu_decrease = 1.0 / 3.0;  ///< Damping shrink factor on accepted steps.
  double max_mu = 1e12;
};

/// Minimize 0.5 * ||r(p)||^2 from `initial`. Uses the analytic Jacobian when
/// the problem provides one, central differences otherwise.
OptimizeResult levenberg_marquardt(const ResidualProblem& problem, const num::Vector& initial,
                                   const LmOptions& options = {});

}  // namespace prm::opt
