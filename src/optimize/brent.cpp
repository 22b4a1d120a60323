#include "optimize/brent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace prm::opt {

BrentResult brent_minimize(const std::function<double(double)>& f, double a, double b,
                           double x_tol) {
  constexpr double kGolden = 0.3819660112501051;  // (3 - sqrt(5)) / 2
  constexpr double kSqrtEps = 1.4901161193847656e-8;
  constexpr int kMaxEvaluations = 200;
  if (a > b) std::swap(a, b);
  // x: the best point so far, w: the second best, v: the previous w; d: the
  // last step, e: the one before it.
  double x = a + kGolden * (b - a), w = x, v = x;
  double fx = f(x), fw = fx, fv = fx;
  double d = 0.0, e = 0.0;
  BrentResult res{x, fx, 1, false};
  for (; res.evaluations < kMaxEvaluations; ++res.evaluations) {
    const double m = 0.5 * (a + b);
    const double tol = kSqrtEps * std::fabs(x) + x_tol;
    if (std::fabs(x - m) <= 2.0 * tol - 0.5 * (b - a)) {
      res.converged = true;
      break;
    }
    // The vertex of the parabola through x, w, v, taken when it lies inside
    // [a, b] and the step is less than half the step before last.
    double p = 0.0, q = 0.0;
    if (std::fabs(e) > tol) {
      const double r = (x - w) * (fx - fv);
      q = (x - v) * (fx - fw);
      p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::fabs(q);
    }
    if (std::fabs(p) < std::fabs(0.5 * q * e) && p > q * (a - x) && p < q * (b - x)) {
      e = d;
      d = p / q;
      if ((x + d) - a < 2.0 * tol || b - (x + d) < 2.0 * tol) d = x < m ? tol : -tol;
    } else {
      e = (x < m ? b : a) - x;
      d = kGolden * e;
    }
    const double u = x + (std::fabs(d) >= tol ? d : (d > 0.0 ? tol : -tol));
    const double fu = f(u);
    if (fu <= fx) {
      (u < x ? b : a) = x;
      std::tie(v, fv, w, fw, x, fx) = std::make_tuple(w, fw, x, fx, u, fu);
    } else {
      (u < x ? a : b) = u;
      if (fu <= fw || w == x) {
        std::tie(v, fv, w, fw) = std::make_tuple(w, fw, u, fu);
      } else if (fu <= fv || v == x || v == w) {
        std::tie(v, fv) = std::make_tuple(u, fu);
      }
    }
  }
  res.x = x;
  res.fx = fx;
  return res;
}

BrentResult scan_then_brent(const std::function<double(double)>& f, double lo, double hi,
                            int samples, double x_tol) {
  if (samples < 3) throw std::invalid_argument("scan_then_brent: samples must be >= 3");
  if (lo > hi) std::swap(lo, hi);
  const double h = (hi - lo) / (samples - 1);
  double best_x = lo, best_f = f(lo);
  for (int i = 1; i < samples; ++i) {
    const double fx = f(lo + i * h);
    if (fx < best_f) std::tie(best_x, best_f) = std::make_tuple(lo + i * h, fx);
  }
  BrentResult res = brent_minimize(f, std::max(lo, best_x - h), std::min(hi, best_x + h), x_tol);
  res.evaluations += samples;
  if (best_f < res.fx) std::tie(res.x, res.fx) = std::make_tuple(best_x, best_f);
  return res;
}

}  // namespace prm::opt
