// One-dimensional minimization by Brent's method (parabolic interpolation
// safeguarded by golden-section steps), used to profile the variable-
// projection fits, to locate the trough of a fitted curve when no closed
// form exists (mixture models) and to tune single scalar knobs.
#pragma once

#include <functional>

namespace prm::opt {

struct BrentResult {
  double x = 0.0;
  double fx = 0.0;
  int evaluations = 0;
  bool converged = false;  ///< x is known to the tolerance (else 200 calls ran out).
};

/// Minimize f on [lo, hi] (Brent 1973, "localmin") to within
/// sqrt(eps) |x| + x_tol. f need not be unimodal, but the result is then
/// only a local minimum.
BrentResult brent_minimize(const std::function<double(double)>& f, double lo, double hi,
                           double x_tol = 1e-10);

/// Coarse-to-fine scan: sample [lo, hi] at `samples` points, then refine the
/// best cell with Brent's method. Robust when several local minima exist
/// (e.g. a W-shaped curve) and the global one is wanted.
BrentResult scan_then_brent(const std::function<double(double)>& f, double lo, double hi,
                            int samples = 128, double x_tol = 1e-10);

}  // namespace prm::opt
