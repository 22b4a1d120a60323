#include "core/bathtub.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>

#include "numerics/autodiff.hpp"
#include "numerics/linalg.hpp"
#include "numerics/polynomial.hpp"
#include "numerics/simd.hpp"
#include "optimize/brent.hpp"
#include "optimize/multistart.hpp"

namespace prm::core {

namespace {
void require_params(const num::Vector& p, std::size_t n, const char* model) {
  if (p.size() != n) {
    throw std::invalid_argument(std::string(model) + ": expected " + std::to_string(n) +
                                " parameters, got " + std::to_string(p.size()));
  }
}

void require_out(std::span<const double> t, std::span<double> out, const char* model) {
  if (out.size() != t.size()) {
    throw std::invalid_argument(std::string(model) +
                                ": eval_batch out size must match t size");
  }
}

// Both curves are written once, generically over the scalar type: doubles for
// evaluation, duals for the exact gradients below.
template <typename Scalar>
Scalar quadratic_curve(double t, std::span<const Scalar> p) {
  return p[0] + p[1] * Scalar(t) + p[2] * Scalar(t * t);
}

template <typename Scalar>
Scalar competing_risks_curve(double t, std::span<const Scalar> p) {
  return p[0] / (Scalar(1.0) + p[1] * Scalar(t)) + Scalar(2.0 * t) * p[2];
}

// --- Batch kernels --------------------------------------------------------
//
// Whole-series evaluation in 4-lane chunks. The pack expressions repeat the
// scalar curves' operation order exactly, so each lane is bit-identical to
// evaluate() on the same t — for both the native and the generic pack (see
// simd.hpp's bit-parity contract). Tail samples are padded with t = 1.0
// (a safe in-domain abscissa) and the pad lanes discarded.

template <typename Pack, typename Kernel>
void eval_chunks(std::span<const double> t, std::span<double> out, const Kernel& kernel) {
  std::size_t i = 0;
  for (; i + Pack::width <= t.size(); i += Pack::width) {
    kernel(Pack::load(t.data() + i)).store(out.data() + i);
  }
  if (i < t.size()) {
    double pad_t[Pack::width] = {1.0, 1.0, 1.0, 1.0};
    double pad_out[Pack::width];
    for (std::size_t k = i; k < t.size(); ++k) pad_t[k - i] = t[k];
    kernel(Pack::load(pad_t)).store(pad_out);
    for (std::size_t k = i; k < t.size(); ++k) out[k] = pad_out[k - i];
  }
}

template <typename Pack>
void quadratic_eval_kernel(std::span<const double> t, const double* p,
                           std::span<double> out) {
  const Pack a = Pack::broadcast(p[0]);
  const Pack b = Pack::broadcast(p[1]);
  const Pack c = Pack::broadcast(p[2]);
  eval_chunks<Pack>(t, out, [&](Pack tv) { return a + b * tv + c * (tv * tv); });
}

template <typename Pack>
void competing_risks_eval_kernel(std::span<const double> t, const double* p,
                                 std::span<double> out) {
  const Pack a = Pack::broadcast(p[0]);
  const Pack b = Pack::broadcast(p[1]);
  const Pack c = Pack::broadcast(p[2]);
  const Pack one = Pack::broadcast(1.0);
  const Pack two = Pack::broadcast(2.0);
  eval_chunks<Pack>(t, out,
                    [&](Pack tv) { return a / (one + b * tv) + (two * tv) * c; });
}

template <typename Pack>
void competing_risks_grad_kernel(std::span<const double> t, const double* p,
                                 num::Matrix* out) {
  out->resize(t.size(), 3);
  const Pack a = Pack::broadcast(p[0]);
  const Pack b = Pack::broadcast(p[1]);
  const Pack one = Pack::broadcast(1.0);
  const Pack two = Pack::broadcast(2.0);
  double* rows = out->data();
  std::size_t i = 0;
  double col[3][Pack::width];
  const auto emit = [&](Pack tv, std::size_t first, std::size_t count) {
    const Pack inv = one / (one + b * tv);
    const Pack g1 = -(a * tv) * (inv * inv);
    inv.store(col[0]);
    g1.store(col[1]);
    (two * tv).store(col[2]);
    for (std::size_t k = 0; k < count; ++k) {
      double* row = rows + (first + k) * 3;
      row[0] = col[0][k];
      row[1] = col[1][k];
      row[2] = col[2][k];
    }
  };
  for (; i + Pack::width <= t.size(); i += Pack::width) {
    emit(Pack::load(t.data() + i), i, Pack::width);
  }
  if (i < t.size()) {
    double pad_t[Pack::width] = {1.0, 1.0, 1.0, 1.0};
    for (std::size_t k = i; k < t.size(); ++k) pad_t[k - i] = t[k];
    emit(Pack::load(pad_t), i, t.size() - i);
  }
}

// The competing-risks fit at one beta: alpha and gamma >= 0 solved exactly,
// and the SSE at them.
struct CompetingRisksLinear {
  double alpha = 0.0;
  double gamma = 0.0;
  double sse = 0.0;
};

// Exact non-negative least squares for (alpha, gamma) at a fixed beta, in
// 4-lane packs with a scalar tail: the 2x2 normal equations, or the better
// one-column fit when a sign is violated. gg and gy are the beta-free sums of
// the gamma column 2t; f receives the alpha column 1/(1 + beta t). The SSE is
// summed from the residuals: the expanded normal-equation form cancels to
// noise near an exact fit.
template <typename Pack>
CompetingRisksLinear competing_risks_solve(std::span<const double> t,
                                           std::span<const double> y, double gg, double gy,
                                           double beta, double* f) {
  const std::size_t n = t.size();
  const Pack b = Pack::broadcast(beta);
  const Pack one = Pack::broadcast(1.0);
  const Pack two = Pack::broadcast(2.0);
  Pack ff_v = Pack::broadcast(0.0);
  Pack fg_v = ff_v;
  Pack fy_v = ff_v;
  std::size_t i = 0;
  for (; i + Pack::width <= n; i += Pack::width) {
    const Pack tv = Pack::load(t.data() + i);
    const Pack fv = one / (one + b * tv);
    fv.store(f + i);
    ff_v = ff_v + fv * fv;
    fg_v = fg_v + fv * (two * tv);
    fy_v = fy_v + fv * Pack::load(y.data() + i);
  }
  double ff = num::lane_sum(ff_v);
  double fg = num::lane_sum(fg_v);
  double fy = num::lane_sum(fy_v);
  for (std::size_t k = i; k < n; ++k) {
    f[k] = 1.0 / (1.0 + beta * t[k]);
    ff += f[k] * f[k];
    fg += f[k] * (2.0 * t[k]);
    fy += f[k] * y[k];
  }
  const double det = ff * gg - fg * fg;
  double a = det > 0.0 ? (fy * gg - gy * fg) / det : -1.0;
  double c = det > 0.0 ? (ff * gy - fg * fy) / det : -1.0;
  if (!(a >= 0.0 && c >= 0.0)) {
    // A sign is violated, so the optimum lies on a face of the orthant:
    // the one-column fit that lowers the SSE more (by a * fy or c * gy).
    a = std::max(fy / ff, 0.0);
    c = gg > 0.0 ? std::max(gy / gg, 0.0) : 0.0;
    if (c * gy > a * fy) {
      a = 0.0;
    } else {
      c = 0.0;
    }
  }
  const Pack av = Pack::broadcast(a);
  const Pack cv = Pack::broadcast(c);
  Pack sse_v = Pack::broadcast(0.0);
  for (std::size_t k = 0; k < i; k += Pack::width) {
    const Pack r = Pack::load(y.data() + k) - av * Pack::load(f + k) -
                   cv * (two * Pack::load(t.data() + k));
    sse_v = sse_v + r * r;
  }
  double sse = num::lane_sum(sse_v);
  for (std::size_t k = i; k < n; ++k) {
    const double r = y[k] - a * f[k] - c * (2.0 * t[k]);
    sse += r * r;
  }
  return {a, c, sse};
}

// Least-squares fit of the competing-risks curve by variable projection
// (Golub & Pereyra 1973). The curve is linear in alpha and gamma, so for each
// beta they are solved exactly (competing_risks_solve); beta is found by a
// log-spaced scan of beta * t_max over [1e-4, 1e4] refined by Brent's
// method, or is the beta -> 0 limit when that fits better. Returns
// [alpha, beta, gamma], each possibly 0.
num::Vector competing_risks_variable_projection(const data::PerformanceSeries& fit) {
  const std::span<const double> t = fit.times();
  const std::span<const double> y = fit.values();
  // The beta-free sums of the normal equations (the gamma column is 2t).
  double gg = 0.0;
  double gy = 0.0;
  double t_min = 0.0;
  double t_span = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    gg += (2.0 * t[i]) * (2.0 * t[i]);
    gy += (2.0 * t[i]) * y[i];
    t_min = std::min(t_min, t[i]);
    t_span = std::max(t_span, std::fabs(t[i]));
  }
  t_span = std::max(t_span, 1e-12);

  std::vector<double> f(t.size());
  const bool simd = num::batch_simd_enabled();
  const auto solve = [&](double beta) {
    return simd ? competing_risks_solve<num::f64x4>(t, y, gg, gy, beta, f.data())
                : competing_risks_solve<num::f64x4_generic>(t, y, gg, gy, beta, f.data());
  };

  // Profile SSE over log(beta), with beta * t_max in [1e-4, 1e4]; negative
  // times cap beta so that 1 + beta t stays >= 0.5 across the window.
  const double lo = std::log(1e-4 / t_span);
  double hi = std::log(1e4 / t_span);
  if (t_min < 0.0) hi = std::max(lo, std::min(hi, std::log(0.5 / -t_min)));
  const opt::BrentResult best = opt::scan_then_brent(
      [&solve](double log_beta) { return solve(std::exp(log_beta)).sse; }, lo, hi,
      /*samples=*/33, /*x_tol=*/1e-8);
  // The scan stops short of beta -> 0, where the curve becomes the line
  // alpha + 2 gamma t; that limit is the optimum of some windows.
  const double beta = solve(0.0).sse < best.fx ? 0.0 : std::exp(best.x);
  const CompetingRisksLinear linear = solve(beta);
  return {linear.alpha, beta, linear.gamma};
}

}  // namespace

// --- QuadraticBathtubModel ----------------------------------------------

std::vector<opt::Bound> QuadraticBathtubModel::parameter_bounds() const {
  // alpha > 0 (performance at t = 0), beta < 0 (initial decline),
  // gamma > 0 (eventual recovery) -- the sign pattern of a bathtub.
  return {opt::Bound::positive(), opt::Bound::negative(), opt::Bound::positive()};
}

double QuadraticBathtubModel::evaluate(double t, const num::Vector& p) const {
  require_params(p, 3, "quadratic");
  return quadratic_curve<double>(t, std::span<const double>(p));
}

num::Vector QuadraticBathtubModel::gradient(double t, const num::Vector& p) const {
  require_params(p, 3, "quadratic");
  return num::dual_gradient(
      [t](std::span<const num::Dual> q) { return quadratic_curve<num::Dual>(t, q); }, p);
}

void QuadraticBathtubModel::eval_batch(std::span<const double> t, const num::Vector& p,
                                       std::span<double> out) const {
  require_params(p, 3, "quadratic");
  require_out(t, out, "quadratic");
  if (num::batch_simd_enabled()) {
    quadratic_eval_kernel<num::f64x4>(t, p.data(), out);
  } else {
    quadratic_eval_kernel<num::f64x4_generic>(t, p.data(), out);
  }
}

void QuadraticBathtubModel::gradient_batch(std::span<const double> t, const num::Vector& p,
                                           num::Matrix* out) const {
  require_params(p, 3, "quadratic");
  // The rows are [1, t, t^2]: pure stores, nothing to vectorize.
  out->resize(t.size(), 3);
  double* row = out->data();
  for (std::size_t i = 0; i < t.size(); ++i, row += 3) {
    row[0] = 1.0;
    row[1] = t[i];
    row[2] = t[i] * t[i];
  }
}

namespace {
// Least-squares fit of Eq. 1 on the coefficients in `free` (a bit mask over
// alpha, beta, gamma; the others are 0), or nullopt for a rank-deficient
// design.
std::optional<num::Vector> quadratic_ls_on(const data::PerformanceSeries& fit, unsigned free) {
  std::size_t cols = 0;
  for (unsigned k = 0; k < 3; ++k) cols += (free >> k) & 1u;
  if (cols == 0) return num::Vector(3, 0.0);
  num::Matrix a(fit.size(), cols);
  num::Vector b(fit.size());
  for (std::size_t i = 0; i < fit.size(); ++i) {
    const double t = fit.time(i);
    const double column[3] = {1.0, t, t * t};
    std::size_t c = 0;
    for (unsigned k = 0; k < 3; ++k) {
      if ((free >> k) & 1u) a(i, c++) = column[k];
    }
    b[i] = fit.value(i);
  }
  const auto x = num::qr_solve(a, b);
  if (!x) return std::nullopt;
  num::Vector p(3, 0.0);
  std::size_t c = 0;
  for (unsigned k = 0; k < 3; ++k) {
    if ((free >> k) & 1u) p[k] = (*x)[c++];
  }
  return p;
}

bool has_bathtub_signs(const num::Vector& p, bool strict) {
  return strict ? p[0] > 0.0 && p[1] < 0.0 && p[2] > 0.0
                : p[0] >= 0.0 && p[1] <= 0.0 && p[2] >= 0.0;
}
}  // namespace

num::Vector QuadraticBathtubModel::linear_ls_fit(const data::PerformanceSeries& fit) {
  if (fit.size() < 3) {
    throw std::invalid_argument("quadratic::linear_ls_fit: need at least 3 samples");
  }
  const auto x = quadratic_ls_on(fit, 0b111);
  if (!x) throw std::runtime_error("quadratic::linear_ls_fit: rank-deficient design");
  return *x;
}

std::vector<num::Vector> QuadraticBathtubModel::initial_guesses(
    const data::PerformanceSeries& fit) const {
  num::Vector best = linear_ls_fit(fit);
  if (!has_bathtub_signs(best, /*strict=*/true)) {
    // The objective is convex, so its optimum over the closed sign orthant
    // is the unconstrained fit on one face (the coefficients outside `free`
    // held at 0) that keeps the signs: the best of the 7 face fits that do.
    // The empty face (all 0) always does.
    best.assign(3, 0.0);
    double best_sse = std::numeric_limits<double>::infinity();
    for (unsigned free = 0; free < 0b111; ++free) {
      const auto p = quadratic_ls_on(fit, free);
      if (!p || !has_bathtub_signs(*p, /*strict=*/false)) continue;
      double sse = 0.0;
      for (std::size_t i = 0; i < fit.size(); ++i) {
        const double r = fit.value(i) - quadratic_curve<double>(fit.time(i), *p);
        sse += r * r;
      }
      if (sse < best_sse) {
        best_sse = sse;
        best = *p;
      }
    }
    // Clip into the sign bounds, as fit_model does.
    if (!(best[0] >= 1e-12)) best[0] = 1e-12;
    if (!(best[1] <= -1e-12)) best[1] = -1e-12;
    if (!(best[2] >= 1e-12)) best[2] = 1e-12;
  }
  return {best};
}

std::pair<num::Vector, num::Vector> QuadraticBathtubModel::search_box(
    const data::PerformanceSeries& fit) const {
  const double tn = std::max(fit.times().back(), 1.0);
  const double scale = std::max(fit.value(0), 0.1);
  // alpha near the initial performance; beta/gamma scaled by the horizon.
  num::Vector lo = {0.5 * scale, -2.0 * scale / tn, 1e-8};
  num::Vector hi = {1.5 * scale, -1e-8, 2.0 * scale / (tn * tn)};
  return {lo, hi};
}

std::optional<double> QuadraticBathtubModel::area_closed_form(const num::Vector& p, double t0,
                                                              double t1) const {
  require_params(p, 3, "quadratic");
  const auto antiderivative = [&p](double t) {
    return p[0] * t + p[1] * t * t / 2.0 + p[2] * t * t * t / 3.0;  // Eq. (3)
  };
  return antiderivative(t1) - antiderivative(t0);
}

std::optional<double> QuadraticBathtubModel::recovery_time_closed_form(const num::Vector& p,
                                                                       double level,
                                                                       double after) const {
  require_params(p, 3, "quadratic");
  // gamma t^2 + beta t + (alpha - level) = 0 (Eq. 2).
  const auto roots = num::quadratic_roots(p[2], p[1], p[0] - level);
  double t = 0.0;
  if (num::first_root_after(roots, after, &t)) return t;
  return std::nullopt;
}

std::optional<double> QuadraticBathtubModel::trough_closed_form(const num::Vector& p) const {
  require_params(p, 3, "quadratic");
  if (p[2] <= 0.0) return std::nullopt;
  const double t = -p[1] / (2.0 * p[2]);
  if (t < 0.0) return 0.0;
  return t;
}

void QuadraticBathtubModel::tune_multistart(opt::MultistartOptions& options,
                                            const FitObjective& objective) const {
  // The bound transforms are monotone per coordinate, so they add no
  // stationary points to a convex objective (Eq. 1 is linear in the
  // parameters): LM from the exact guess reaches its one minimum. Cauchy's
  // redescending loss is not convex and has several.
  if (!objective.convex_loss) return;
  // The guess is exact for the plain SSE only. Under weights or Huber's loss
  // the optimum moves, possibly off the guess's face, where LM stalls on a
  // coefficient clipped to 1e-12 (its internal derivative is ~1e-12): one
  // sampled start inside the sign orthant reaches the minimum from there.
  options.sampled_starts = objective.plain_sse ? 0 : 1;
  options.jitter_per_start = 0;
  options.polish_with_nelder_mead = false;
}

bool QuadraticBathtubModel::is_bathtub(const num::Vector& p) {
  if (p.size() != 3) return false;
  if (!(p[0] > 0.0) || !(p[2] > 0.0)) return false;
  return p[1] < 0.0 && p[1] > -2.0 * std::sqrt(p[0] * p[2]);
}

// --- CompetingRisksModel --------------------------------------------------

std::vector<opt::Bound> CompetingRisksModel::parameter_bounds() const {
  return {opt::Bound::positive(), opt::Bound::positive(), opt::Bound::positive()};
}

double CompetingRisksModel::evaluate(double t, const num::Vector& p) const {
  require_params(p, 3, "competing-risks");
  return competing_risks_curve<double>(t, std::span<const double>(p));
}

num::Vector CompetingRisksModel::gradient(double t, const num::Vector& p) const {
  require_params(p, 3, "competing-risks");
  return num::dual_gradient(
      [t](std::span<const num::Dual> q) { return competing_risks_curve<num::Dual>(t, q); },
      p);
}

void CompetingRisksModel::eval_batch(std::span<const double> t, const num::Vector& p,
                                     std::span<double> out) const {
  require_params(p, 3, "competing-risks");
  require_out(t, out, "competing-risks");
  if (num::batch_simd_enabled()) {
    competing_risks_eval_kernel<num::f64x4>(t, p.data(), out);
  } else {
    competing_risks_eval_kernel<num::f64x4_generic>(t, p.data(), out);
  }
}

void CompetingRisksModel::gradient_batch(std::span<const double> t, const num::Vector& p,
                                         num::Matrix* out) const {
  require_params(p, 3, "competing-risks");
  if (num::batch_simd_enabled()) {
    competing_risks_grad_kernel<num::f64x4>(t, p.data(), out);
  } else {
    competing_risks_grad_kernel<num::f64x4_generic>(t, p.data(), out);
  }
}

std::vector<num::Vector> CompetingRisksModel::initial_guesses(
    const data::PerformanceSeries& fit) const {
  num::Vector p = competing_risks_variable_projection(fit);
  // Clip into the positive bounds, as fit_model does.
  for (double& x : p) {
    if (!(x >= 1e-12)) x = 1e-12;
  }
  return {p};
}

std::pair<num::Vector, num::Vector> CompetingRisksModel::search_box(
    const data::PerformanceSeries& fit) const {
  const double tn = std::max(fit.times().back(), 1.0);
  const double scale = std::max(fit.value(0), 0.1);
  num::Vector lo = {0.5 * scale, 1e-4, 1e-8};
  num::Vector hi = {1.5 * scale, 4.0 / std::max(fit.trough_time(), 1.0), scale / tn};
  return {lo, hi};
}

std::optional<double> CompetingRisksModel::area_closed_form(const num::Vector& p, double t0,
                                                            double t1) const {
  require_params(p, 3, "competing-risks");
  const auto antiderivative = [&p](double t) {
    return p[0] / p[1] * std::log1p(p[1] * t) + p[2] * t * t;  // Eq. (6)
  };
  return antiderivative(t1) - antiderivative(t0);
}

std::optional<double> CompetingRisksModel::recovery_time_closed_form(const num::Vector& p,
                                                                     double level,
                                                                     double after) const {
  require_params(p, 3, "competing-risks");
  // alpha/(1+beta t) + 2 gamma t = L, cleared of the denominator:
  // 2 beta gamma t^2 + (2 gamma - L beta) t + (alpha - L) = 0  (Eq. 5).
  const auto roots =
      num::quadratic_roots(2.0 * p[1] * p[2], 2.0 * p[2] - level * p[1], p[0] - level);
  double t = 0.0;
  if (num::first_root_after(roots, after, &t)) return t;
  return std::nullopt;
}

std::optional<double> CompetingRisksModel::trough_closed_form(const num::Vector& p) const {
  require_params(p, 3, "competing-risks");
  // P'(t) = -alpha beta/(1+beta t)^2 + 2 gamma = 0
  // => (1 + beta t)^2 = alpha beta / (2 gamma).
  const double rhs = p[0] * p[1] / (2.0 * p[2]);
  if (rhs <= 1.0) return 0.0;  // monotone increasing from t = 0
  return (std::sqrt(rhs) - 1.0) / p[1];
}

void CompetingRisksModel::tune_multistart(opt::MultistartOptions& options,
                                          const FitObjective& objective) const {
  if (!objective.plain_sse) return;
  options.sampled_starts = 0;
  options.jitter_per_start = 0;
  options.polish_with_nelder_mead = false;
  options.warm_start.clear();
}

}  // namespace prm::core
