// Special functions needed by the statistics layer: error function inverses,
// the standard normal CDF and quantile, and the regularized incomplete gamma
// functions (the Gamma mixture family). Implemented from scratch (no GSL
// dependency) with accuracy that comfortably exceeds what curve fitting on
// monthly economic data demands (relative error <= 1e-10 on the tested
// domains).
#pragma once

namespace prm::num {

/// Inverse of the error function, valid for x in (-1, 1).
/// Uses a rational initial guess (Giles, 2010) refined by two Halley steps.
double erf_inv(double x);

/// Inverse of the complementary error function, valid for x in (0, 2).
double erfc_inv(double x);

/// Standard normal CDF Phi(x).
double normal_cdf(double x);

/// Standard normal quantile Phi^{-1}(p), p in (0, 1).
double normal_quantile(double p);

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a),
/// a > 0, x >= 0. Series for x < a+1, continued fraction otherwise.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

}  // namespace prm::num
