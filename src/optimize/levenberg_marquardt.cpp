#include "optimize/levenberg_marquardt.hpp"

#include <cmath>

#include "numerics/differentiate.hpp"
#include "numerics/linalg.hpp"
#include "optimize/workspace.hpp"

namespace prm::opt {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged: return "converged";
    case StopReason::kMaxIterations: return "max-iterations";
    case StopReason::kStalled: return "stalled";
    case StopReason::kNumericalFailure: return "numerical-failure";
  }
  return "unknown";
}

namespace {

bool all_finite(const num::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double half_squared_norm(const num::Vector& r) {
  double s = 0.0;
  for (double x : r) s += x * x;
  return 0.5 * s;
}

// Jacobian into ws.j: the problem's analytic form when present, else central
// differences (the one remaining allocating path — FD problems are off the
// hot path by construction).
void eval_jacobian_ws(const ResidualProblem& problem, const num::Vector& p,
                      FitWorkspace& ws, int* evals) {
  if (problem.has_jacobian()) {
    problem.eval_jacobian(p, ws.j);
    return;
  }
  *evals += static_cast<int>(2 * p.size());
  ws.j = num::jacobian_central(problem.residuals, p);
}

}  // namespace

OptimizeResult levenberg_marquardt(const ResidualProblem& problem, const num::Vector& initial,
                                   const LmOptions& options) {
  OptimizeResult result;
  result.parameters = initial;

  // All iteration state lives in the calling thread's workspace: after the
  // first solve at a given problem size the loop below performs no heap
  // allocation (analytic-Jacobian problems with *_into evaluators).
  FitWorkspace& ws = FitWorkspace::local();
  num::Vector& p = ws.p;
  p = initial;
  problem.eval_residuals(p, ws.r);
  result.function_evaluations = 1;
  if (!all_finite(ws.r)) {
    result.stop_reason = StopReason::kNumericalFailure;
    result.cost = std::numeric_limits<double>::infinity();
    return result;
  }
  double cost = half_squared_norm(ws.r);

  eval_jacobian_ws(problem, p, ws, &result.function_evaluations);
  num::gram_into(ws.j, &ws.jtj);
  num::at_times_into(ws.j, ws.r, &ws.g);

  double max_diag = 0.0;
  for (std::size_t i = 0; i < ws.jtj.rows(); ++i) {
    max_diag = std::max(max_diag, ws.jtj(i, i));
  }
  double mu = options.initial_mu * std::max(max_diag, 1e-12);

  result.stop_reason = StopReason::kMaxIterations;
  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;

    if (num::norm_inf(ws.g) < options.gradient_tol) {
      result.stop_reason = StopReason::kConverged;
      break;
    }

    // Try steps with increasing damping until one is productive.
    bool stepped = false;
    for (int attempt = 0; attempt < 40; ++attempt) {
      // (J^T J + mu * diag(J^T J + eps)) dp = -g. Solving for +g and negating
      // is bit-identical (sign flips commute exactly through the triangular
      // solves) and saves a negated-gradient buffer.
      ws.a = ws.jtj;
      for (std::size_t i = 0; i < ws.a.rows(); ++i) {
        ws.a(i, i) += mu * std::max(ws.jtj(i, i), 1e-12);
      }
      if (!num::cholesky_into(ws.a, &ws.chol)) {
        mu = std::min(mu * options.mu_increase, options.max_mu);
        continue;
      }
      num::cholesky_solve_into(ws.chol, ws.g, &ws.solve_y, &ws.dp);
      num::scale_inplace(ws.dp, -1.0);
      const num::Vector& dp = ws.dp;

      const double step_norm = num::norm2(dp);
      const double p_norm = std::max(num::norm2(p), 1e-12);
      if (step_norm <= options.step_tol * p_norm) {
        result.stop_reason = StopReason::kConverged;
        stepped = false;
        break;
      }

      ws.p_trial = p;
      num::axpy_inplace(ws.p_trial, 1.0, dp);
      problem.eval_residuals(ws.p_trial, ws.r_trial);
      ++result.function_evaluations;
      if (!all_finite(ws.r_trial)) {
        mu = std::min(mu * options.mu_increase, options.max_mu);
        continue;
      }
      const double cost_new = half_squared_norm(ws.r_trial);

      // Gain ratio: actual reduction over the reduction predicted by the
      // quadratic model, 0.5 * dp^T (mu D dp - g).
      double predicted = 0.0;
      for (std::size_t i = 0; i < dp.size(); ++i) {
        predicted += dp[i] * (mu * std::max(ws.jtj(i, i), 1e-12) * dp[i] - ws.g[i]);
      }
      predicted *= 0.5;
      const double actual = cost - cost_new;
      const double rho = (predicted > 0.0) ? actual / predicted : (actual > 0.0 ? 1.0 : -1.0);

      if (rho > 0.0 && actual > 0.0) {
        // Accept.
        const double rel_reduction = actual / std::max(cost, 1e-300);
        p.swap(ws.p_trial);
        ws.r.swap(ws.r_trial);
        cost = cost_new;
        eval_jacobian_ws(problem, p, ws, &result.function_evaluations);
        num::gram_into(ws.j, &ws.jtj);
        num::at_times_into(ws.j, ws.r, &ws.g);
        // Nielsen-style damping update.
        const double factor = std::max(options.mu_decrease, 1.0 - std::pow(2.0 * rho - 1.0, 3));
        mu = std::max(mu * factor, 1e-18);
        stepped = true;
        if (rel_reduction < options.cost_tol) {
          result.stop_reason = StopReason::kConverged;
        }
        break;
      }
      mu = std::min(mu * options.mu_increase, options.max_mu);
      if (mu >= options.max_mu) break;
    }

    if (result.stop_reason == StopReason::kConverged) break;
    if (!stepped) {
      if (result.stop_reason != StopReason::kConverged) {
        result.stop_reason = StopReason::kStalled;
      }
      break;
    }
  }

  result.parameters = p;
  result.cost = cost;
  return result;
}

}  // namespace prm::opt
