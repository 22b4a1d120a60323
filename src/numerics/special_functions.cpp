#include "numerics/special_functions.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace prm::num {

namespace {
constexpr double kSqrt2 = 1.4142135623730950488;
constexpr double kTwoOverSqrtPi = 1.1283791670955125739;  // 2/sqrt(pi)
}  // namespace

double erf_inv(double x) {
  if (!(x > -1.0 && x < 1.0)) {
    if (x == -1.0 || x == 1.0) return x * std::numeric_limits<double>::infinity();
    throw std::domain_error("erf_inv: argument must lie in [-1, 1]");
  }
  if (x == 0.0) return 0.0;

  // Initial approximation (Giles 2010, single precision coefficients are
  // enough for a Newton/Halley polish to full double accuracy).
  double w = -std::log((1.0 - x) * (1.0 + x));
  double p;
  if (w < 5.0) {
    w -= 2.5;
    p = 2.81022636e-08;
    p = 3.43273939e-07 + p * w;
    p = -3.5233877e-06 + p * w;
    p = -4.39150654e-06 + p * w;
    p = 0.00021858087 + p * w;
    p = -0.00125372503 + p * w;
    p = -0.00417768164 + p * w;
    p = 0.246640727 + p * w;
    p = 1.50140941 + p * w;
  } else {
    w = std::sqrt(w) - 3.0;
    p = -0.000200214257;
    p = 0.000100950558 + p * w;
    p = 0.00134934322 + p * w;
    p = -0.00367342844 + p * w;
    p = 0.00573950773 + p * w;
    p = -0.0076224613 + p * w;
    p = 0.00943887047 + p * w;
    p = 1.00167406 + p * w;
    p = 2.83297682 + p * w;
  }
  double y = p * x;

  // Two Halley iterations on f(y) = erf(y) - x.
  for (int it = 0; it < 2; ++it) {
    const double err = std::erf(y) - x;
    const double deriv = kTwoOverSqrtPi * std::exp(-y * y);
    y -= err / (deriv + err * y);  // Halley: f' of erf has f'' = -2y f'.
  }
  return y;
}

double erfc_inv(double x) {
  if (!(x > 0.0 && x < 2.0)) {
    if (x == 0.0) return std::numeric_limits<double>::infinity();
    if (x == 2.0) return -std::numeric_limits<double>::infinity();
    throw std::domain_error("erfc_inv: argument must lie in [0, 2]");
  }
  return erf_inv(1.0 - x);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::domain_error("normal_quantile: p must lie in (0, 1)");
  }
  return -kSqrt2 * erfc_inv(2.0 * p);
}

namespace {

// Series expansion for P(a, x), converges quickly for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Lentz continued fraction for Q(a, x), converges quickly for x > a + 1.
double gamma_q_cf(double a, double x) {
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  if (!(a > 0.0)) throw std::domain_error("gamma_p: a must be positive");
  if (x < 0.0) throw std::domain_error("gamma_p: x must be non-negative");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  if (!(a > 0.0)) throw std::domain_error("gamma_q: a must be positive");
  if (x < 0.0) throw std::domain_error("gamma_q: x must be non-negative");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

}  // namespace prm::num
