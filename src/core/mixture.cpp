#include "core/mixture.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/autodiff.hpp"
#include "numerics/simd.hpp"
#include "numerics/simd_math.hpp"
#include "numerics/special_functions.hpp"
#include "optimize/golden_section.hpp"
#include "optimize/multistart.hpp"

namespace prm::core {

namespace {

// The family CDFs written once, generically over the scalar type: double for
// plain evaluation, num::Dual for the exact gradients. The double
// instantiation compiles to exactly the expressions family_cdf used to spell
// out, so values are unchanged. Parameter-slice sizes are validated by the
// public wrappers.
template <typename Scalar>
Scalar family_cdf_t(Family family, std::span<const Scalar> p, double t) {
  using std::expm1;
  using std::log;
  using std::pow;
  if (t <= 0.0) return Scalar(0.0);
  switch (family) {
    case Family::kExponential:
      return -expm1(-p[0] * Scalar(t));
    case Family::kWeibull:
      return -expm1(-pow(Scalar(t) / p[0], p[1]));
    case Family::kLogNormal:
      return num::normal_cdf((log(Scalar(t)) - p[0]) / p[1]);
    case Family::kGamma:
      return num::gamma_p(p[0], Scalar(t) / p[1]);
  }
  throw std::logic_error("family_cdf_t: unknown family");
}

// Full mixture curve P(t) = a1(t) (1 - F1(t)) + a2(t) F2(t), scalar-generic.
// Mirrors the branch structure of the double evaluation path exactly.
template <typename Scalar>
Scalar mixture_curve(const MixtureSpec& spec, std::size_t n1, std::size_t n2, double t,
                     std::span<const Scalar> p) {
  using std::exp;
  Scalar s1 = Scalar(1.0) - family_cdf_t<Scalar>(spec.degradation, p.subspan(0, n1), t);
  if (spec.a1 == DegradationTrend::kExpDecay && t > 0.0) {
    s1 = s1 * exp(-p[n1 + n2 + 1] * Scalar(t));
  }
  const Scalar f2 = family_cdf_t<Scalar>(spec.recovery, p.subspan(n1, n2), t);
  const Scalar b = p[n1 + n2];
  Scalar recovery(0.0);
  if (spec.trend == RecoveryTrend::kExponential) {
    recovery = exp(b * Scalar(t)) * f2;
  } else {
    recovery = b * Scalar(MixtureModel::trend_basis(spec.trend, t)) * f2;
  }
  return s1 + recovery;
}

// ---------------------------------------------------------------------------
// SIMD batch kernels (4-lane chunks).
//
// Analytic gradients of the closed-form CDFs, with two ulp-level respellings
// of the scalar curve chosen for speed:
//   * pow(r, k) with r = t/a becomes exp(k (log t - log a)). log a is a
//     per-series scalar, so every family (and the log trend) shares ONE
//     simd_log(t) per chunk instead of paying a divide + log each.
//   * exp(-z) in gradients becomes 1 + expm1(-z) (exact in real arithmetic),
//     reusing the expm1 the value already needed.
// Batch values can therefore differ from evaluate() by a few ulp on the
// two-parameter families. What IS exact is backend parity: the native and
// generic pack instantiations execute identical IEEE operations, so
// set_batch_simd_enabled never changes an output bit.

template <typename Pack>
struct FamilyChunk {
  Pack f;   ///< F(t)
  Pack g0;  ///< dF/dp0
  Pack g1;  ///< dF/dp1 (zero for one-parameter families)
};

constexpr double kInvSqrt2Pi = 0.3989422804014326779;

// Per-family scalars hoisted out of the chunk loop (one per solve, not one
// per chunk): the log of the Weibull scale.
struct FamilyPre {
  double log_a = 0.0;
};

FamilyPre family_pre(Family family, const double* p) {
  FamilyPre pre;
  if (family == Family::kWeibull) pre.log_a = std::log(p[0]);
  return pre;
}

// True when the family consumes the shared log(t) pack.
bool family_uses_log_t(Family family) {
  return family == Family::kWeibull || family == Family::kLogNormal;
}

// One 4-lane chunk of a family CDF (+ gradient when Grad). `lt` carries
// log(t) computed once by the caller and shared across both families and the
// trend basis. `lanes` carries the same abscissae as `t` for the per-lane
// scalar fallbacks (LogNormal's normal_cdf, the whole Gamma family). Lanes
// with t <= 0 may compute domain garbage (log of a non-positive value); the
// caller masks them afterwards.
template <typename Pack, bool Grad>
FamilyChunk<Pack> family_chunk(Family family, const double* p, const FamilyPre& pre,
                               Pack t, Pack lt, const double* lanes) {
  const Pack zero = Pack::broadcast(0.0);
  const Pack one = Pack::broadcast(1.0);
  FamilyChunk<Pack> out{zero, zero, zero};
  switch (family) {
    case Family::kExponential: {
      const Pack x = Pack::broadcast(p[0]) * t;
      const Pack em1 = num::simd_expm1(-x);
      out.f = -em1;
      if constexpr (Grad) out.g0 = t * (one + em1);
      return out;
    }
    case Family::kWeibull: {
      // F = 1 - e^{-z}, z = (t/a)^k = exp(k (log t - log a)).
      const Pack a = Pack::broadcast(p[0]);
      const Pack k = Pack::broadcast(p[1]);
      const Pack lr = lt - Pack::broadcast(pre.log_a);
      const Pack z = num::simd_exp(k * lr);
      const Pack em1 = num::simd_expm1(-z);
      out.f = -em1;
      if constexpr (Grad) {
        const Pack ez = (one + em1) * z;
        out.g0 = -((ez * k) / a);
        out.g1 = ez * lr;
      }
      return out;
    }
    case Family::kLogNormal: {
      const Pack sigma = Pack::broadcast(p[1]);
      const Pack u = (lt - Pack::broadcast(p[0])) / sigma;
      double buf[Pack::width];
      u.store(buf);
      for (std::size_t i = 0; i < Pack::width; ++i) buf[i] = num::normal_cdf(buf[i]);
      out.f = Pack::load(buf);
      if constexpr (Grad) {
        const Pack phi =
            Pack::broadcast(kInvSqrt2Pi) * num::simd_exp(Pack::broadcast(-0.5) * (u * u));
        out.g0 = -(phi / sigma);
        out.g1 = -((phi * u) / sigma);
      }
      return out;
    }
    case Family::kGamma: {
      // No pack form of the regularized incomplete gamma: all-scalar lanes.
      // d/dscale is analytic (the gamma density); d/dshape is a central
      // difference, as in the dual overload of num::gamma_p.
      const double k = p[0];
      const double theta = p[1];
      double f[Pack::width];
      double g0[Pack::width];
      double g1[Pack::width];
      for (std::size_t i = 0; i < Pack::width; ++i) {
        const double tt = lanes[i];
        f[i] = g0[i] = g1[i] = 0.0;
        if (tt <= 0.0) continue;
        const double x = tt / theta;
        f[i] = num::gamma_p(k, x);
        if constexpr (Grad) {
          const double dens = std::exp((k - 1.0) * std::log(x) - x - std::lgamma(k));
          g1[i] = -dens * x / theta;
          const double h = 1e-6 * std::max(1.0, k);
          g0[i] = (num::gamma_p(k + h, x) - num::gamma_p(k - h, x)) / (2.0 * h);
        }
      }
      out.f = Pack::load(f);
      if constexpr (Grad) {
        out.g0 = Pack::load(g0);
        out.g1 = Pack::load(g1);
      }
      return out;
    }
  }
  throw std::logic_error("family_chunk: unknown family");
}

// One 4-lane chunk of the full mixture curve: value lanes into vals[], and,
// when Grad, gradient column packs scattered into cols[] (cols[c] holds the
// four lanes of dP/dparam_c). Mirrors mixture_curve's branch structure.
template <typename Pack, bool Grad>
void mixture_chunk(const MixtureSpec& spec, std::size_t n1, std::size_t n2,
                   const double* p, const FamilyPre& pre1, const FamilyPre& pre2,
                   bool needs_lt, Pack t, const double* lanes, double* vals,
                   double cols[][4]) {
  const Pack zero = Pack::broadcast(0.0);
  const Pack one = Pack::broadcast(1.0);
  const Pack tpos = cmp_gt(t, zero);
  // One shared log(t) per chunk feeds both families and the log trend.
  const Pack lt = needs_lt ? num::simd_log(t) : zero;

  FamilyChunk<Pack> f1 =
      family_chunk<Pack, Grad>(spec.degradation, p, pre1, t, lt, lanes);
  FamilyChunk<Pack> f2 =
      family_chunk<Pack, Grad>(spec.recovery, p + n1, pre2, t, lt, lanes);
  // F(t <= 0) = 0 with zero gradient; bitwise select kills any in-pack
  // domain garbage (e.g. 0 * -inf = NaN lanes) instead of propagating it.
  f1.f = select(tpos, f1.f, zero);
  f2.f = select(tpos, f2.f, zero);
  if constexpr (Grad) {
    f1.g0 = select(tpos, f1.g0, zero);
    f1.g1 = select(tpos, f1.g1, zero);
    f2.g0 = select(tpos, f2.g0, zero);
    f2.g1 = select(tpos, f2.g1, zero);
  }

  // a1(t): 1, or e^{-theta t} on the t > 0 lanes when the decay is on.
  Pack s1 = one - f1.f;
  Pack a1 = one;
  if (spec.a1 == DegradationTrend::kExpDecay) {
    a1 = select(tpos, num::simd_exp(Pack::broadcast(-p[n1 + n2 + 1]) * t), one);
    s1 = s1 * a1;
  }

  // a2(t) F2(t) and the beta column.
  const Pack beta = Pack::broadcast(p[n1 + n2]);
  Pack a2 = zero;     // the factor multiplying F2
  Pack dbeta = zero;  // dP/dbeta
  if (spec.trend == RecoveryTrend::kExponential) {
    const Pack ebt = num::simd_exp(beta * t);
    a2 = ebt;
    if constexpr (Grad) dbeta = (t * ebt) * f2.f;
  } else {
    Pack g = one;
    switch (spec.trend) {
      case RecoveryTrend::kConstant: g = one; break;
      case RecoveryTrend::kLinear: g = t; break;
      case RecoveryTrend::kLogarithmic: g = select(tpos, lt, zero); break;
      case RecoveryTrend::kExponential: break;  // handled above
    }
    a2 = beta * g;
    if constexpr (Grad) dbeta = g * f2.f;
  }

  const Pack val = s1 + a2 * f2.f;
  val.store(vals);

  if constexpr (Grad) {
    std::size_t c = 0;
    (-(a1 * f1.g0)).store(cols[c++]);
    if (n1 == 2) (-(a1 * f1.g1)).store(cols[c++]);
    (a2 * f2.g0).store(cols[c++]);
    if (n2 == 2) (a2 * f2.g1).store(cols[c++]);
    dbeta.store(cols[c++]);
    if (spec.a1 == DegradationTrend::kExpDecay) {
      // d/dtheta [(1 - F1) e^{-theta t}] = -t s1; zero on the t <= 0 lanes.
      select(tpos, -(t * s1), zero).store(cols[c++]);
    }
  }
}

// Whole-series driver: full 4-lane chunks plus a t = 1.0-padded tail (1.0 is
// safely inside every family's domain; pad lanes are computed and discarded).
template <typename Pack, bool Grad>
void mixture_batch(const MixtureSpec& spec, std::size_t n1, std::size_t n2,
                   const double* p, std::span<const double> t, double* vals,
                   num::Matrix* jac) {
  const std::size_t np =
      n1 + n2 + 1 + (spec.a1 == DegradationTrend::kExpDecay ? 1 : 0);
  if constexpr (Grad) jac->resize(t.size(), np);
  const FamilyPre pre1 = family_pre(spec.degradation, p);
  const FamilyPre pre2 = family_pre(spec.recovery, p + n1);
  const bool needs_lt = family_uses_log_t(spec.degradation) ||
                        family_uses_log_t(spec.recovery) ||
                        spec.trend == RecoveryTrend::kLogarithmic;
  double out4[Pack::width];
  double cols[6][Pack::width];  // np <= 6
  const auto emit = [&](const double* tp, std::size_t first, std::size_t count) {
    mixture_chunk<Pack, Grad>(spec, n1, n2, p, pre1, pre2, needs_lt,
                              Pack::load(tp), tp, out4, cols);
    if constexpr (Grad) {
      for (std::size_t l = 0; l < count; ++l) {
        double* row = jac->data() + (first + l) * np;
        for (std::size_t c = 0; c < np; ++c) row[c] = cols[c][l];
      }
    } else {
      for (std::size_t l = 0; l < count; ++l) vals[first + l] = out4[l];
    }
  };
  std::size_t i = 0;
  for (; i + Pack::width <= t.size(); i += Pack::width) {
    emit(t.data() + i, i, Pack::width);
  }
  if (i < t.size()) {
    const std::size_t rem = t.size() - i;
    double tail[Pack::width];
    for (std::size_t l = 0; l < Pack::width; ++l) tail[l] = l < rem ? t[i + l] : 1.0;
    emit(tail, i, rem);
  }
}

}  // namespace

std::string_view to_string(Family family) {
  switch (family) {
    case Family::kExponential: return "exp";
    case Family::kWeibull: return "wei";
    case Family::kLogNormal: return "lognorm";
    case Family::kGamma: return "gamma";
  }
  return "?";
}

std::string_view to_string(RecoveryTrend trend) {
  switch (trend) {
    case RecoveryTrend::kConstant: return "const";
    case RecoveryTrend::kLinear: return "linear";
    case RecoveryTrend::kExponential: return "exp";
    case RecoveryTrend::kLogarithmic: return "log";
  }
  return "?";
}

std::string_view to_string(DegradationTrend trend) {
  switch (trend) {
    case DegradationTrend::kConstant: return "a1-const";
    case DegradationTrend::kExpDecay: return "a1-expdecay";
  }
  return "?";
}

std::size_t family_num_parameters(Family family) {
  switch (family) {
    case Family::kExponential: return 1;
    case Family::kWeibull:
    case Family::kLogNormal:
    case Family::kGamma: return 2;
  }
  throw std::logic_error("family_num_parameters: unknown family");
}

double family_cdf(Family family, std::span<const double> p, double t) {
  if (p.size() != family_num_parameters(family)) {
    throw std::invalid_argument("family_cdf: wrong parameter count");
  }
  return family_cdf_t<double>(family, p, t);
}

namespace {

std::string family_paper_label(Family f) {
  switch (f) {
    case Family::kExponential: return "Exp";
    case Family::kWeibull: return "Wei";
    case Family::kLogNormal: return "LogN";
    case Family::kGamma: return "Gam";
  }
  return "?";
}

// Heuristic parameters for a degradation CDF whose mass sits around the
// observed trough time.
void degradation_guess(Family f, double trough_time, std::vector<double>* out) {
  const double td = std::max(trough_time, 1.0);
  switch (f) {
    case Family::kExponential:
      out->push_back(1.0 / (2.0 * td));  // gentle decay
      break;
    case Family::kWeibull:
      out->push_back(1.5 * td);  // scale
      out->push_back(2.0);       // shape: S-shaped decline
      break;
    case Family::kLogNormal:
      out->push_back(std::log(td));
      out->push_back(0.75);
      break;
    case Family::kGamma:
      out->push_back(2.0);
      out->push_back(td / 2.0);
      break;
  }
}

// Heuristic parameters for a recovery CDF that turns on after the trough.
void recovery_guess(Family f, double trough_time, double horizon, std::vector<double>* out) {
  const double mid = std::max(0.5 * (trough_time + horizon), 2.0);
  switch (f) {
    case Family::kExponential:
      out->push_back(1.0 / mid);
      break;
    case Family::kWeibull:
      out->push_back(mid);
      out->push_back(2.0);
      break;
    case Family::kLogNormal:
      out->push_back(std::log(mid));
      out->push_back(0.75);
      break;
    case Family::kGamma:
      out->push_back(2.0);
      out->push_back(mid / 2.0);
      break;
  }
}

void family_box(Family f, double horizon, std::vector<double>* lo, std::vector<double>* hi) {
  switch (f) {
    case Family::kExponential:
      lo->push_back(1e-4);
      hi->push_back(1.0);
      break;
    case Family::kWeibull:
      lo->push_back(1.0);
      hi->push_back(3.0 * horizon);
      lo->push_back(0.5);
      hi->push_back(8.0);
      break;
    case Family::kLogNormal:
      lo->push_back(0.0);
      hi->push_back(std::log(3.0 * horizon));
      lo->push_back(0.2);
      hi->push_back(2.5);
      break;
    case Family::kGamma:
      lo->push_back(0.5);
      hi->push_back(8.0);
      lo->push_back(0.5);
      hi->push_back(horizon);
      break;
  }
}

// --- Exp-Exp starts by variable projection ----------------------------------

// out[i] = F(t[i]) = 1 - e^{-rate t[i]} of an Exponential CDF (0 at t <= 0),
// with the batch kernel's operations, in 4-lane chunks.
template <typename Pack>
void exp_cdf_column(std::span<const double> t, double rate, double* out) {
  const Pack r = Pack::broadcast(rate);
  const Pack zero = Pack::broadcast(0.0);
  const auto chunk = [&](Pack tv) {
    return select(cmp_gt(tv, zero), -num::simd_expm1(-(r * tv)), zero);
  };
  std::size_t i = 0;
  for (; i + Pack::width <= t.size(); i += Pack::width) {
    chunk(Pack::load(t.data() + i)).store(out + i);
  }
  if (i < t.size()) {
    double pad[Pack::width] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = i; k < t.size(); ++k) pad[k - i] = t[k];
    chunk(Pack::load(pad)).store(pad);
    for (std::size_t k = i; k < t.size(); ++k) out[k] = pad[k - i];
  }
}

void exp_cdf_column(std::span<const double> t, double rate, double* out) {
  if (num::batch_simd_enabled()) {
    exp_cdf_column<num::f64x4>(t, rate, out);
  } else {
    exp_cdf_column<num::f64x4_generic>(t, rate, out);
  }
}

// The scan's shape: kRateGrid log-spaced recovery rates over rate * t in
// [0.05, 5] at the window's ends (rate in [0.05 / t_max, 5 / t_min]), and
// kDecayGrid degradation rates over [0.001 / t_max, 5 / t_min], which also
// covers declines of a few tenths of a percent over the window;
// kGoldenSteps golden-section steps per profiled row; kExactSeeds starts.
constexpr std::size_t kRateGrid = 24;
constexpr std::size_t kDecayGrid = 34;
constexpr int kGoldenSteps = 20;
constexpr std::size_t kExactSeeds = 2;
// A recovery rate with rate * t_min >= ~37 makes -expm1(-rate t) exactly 1.0
// at every sample, and its gradient exactly 0: the finite stand-in for the
// step limit rate -> infinity, which LM then never moves.
constexpr double kStepRateTimesTmin = 40.0;

// Least-squares starts for the Exp-Exp mixture with a linear-in-beta trend,
// by variable projection (Golub & Pereyra 1973). The curve
//   P(t) = e^{-l1 t} + beta g(t) (1 - e^{-l2 t})
// is linear in beta, so for fixed rates the best beta >= 0 is the clamped
// one-column fit beta* = max(<y - s, c>/<c, c>, 0) with s = e^{-l1 t} and
// c = g (1 - e^{-l2 t}). The profile SSE is scanned on a log grid of rates,
// with the step limit as one more l2 row. Each l2 row's best l1 on the grid
// gives a row profile over l2. From each local minimum of that profile the
// search descends on the profiled rows, where l1 is refined by golden
// section, to a local minimum of their SSE. l1 must be profiled per row
// because its basin is narrow: a single best point of the grid can sit on
// the ridge l2 -> 0, beta -> infinity (beta l2 fixed: the slope limit
// t ln t) far from the optimum, and one grid cell of l1 can change a row's
// SSE fourfold. Returns the best kExactSeeds of those minima as
// [l1, l2, beta], best first, with beta clipped into its positive bound.
std::vector<num::Vector> exp_exp_variable_projection(const data::PerformanceSeries& fit,
                                                     RecoveryTrend trend) {
  const std::span<const double> t = fit.times();
  const std::span<const double> y = fit.values();
  const std::size_t n = t.size();
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = 0.0;
  for (double ti : t) {
    if (ti > 0.0) {
      t_min = std::min(t_min, ti);
      t_max = std::max(t_max, ti);
    }
  }
  if (!(t_max > 0.0)) t_min = t_max = 1.0;  // constant curve: any rates fit

  // The l2 rows: the grid, then the step-limit rate as row kRateGrid.
  constexpr std::size_t kRows = kRateGrid + 1;
  double rates[kRows];
  const double log_hi = std::log(5.0 / t_min);
  const double log_lo2 = std::log(0.05 / t_max);
  for (std::size_t j = 0; j < kRateGrid; ++j) {
    rates[j] = std::exp(log_lo2 + static_cast<double>(j) * (log_hi - log_lo2) / (kRateGrid - 1));
  }
  rates[kRateGrid] = kStepRateTimesTmin / t_min;
  // The l1 columns, at log(decay[k]) = log_lo + k log_step.
  const double log_lo = std::log(0.001 / t_max);
  const double log_step = (log_hi - log_lo) / (kDecayGrid - 1);
  double decay[kDecayGrid];
  for (std::size_t k = 0; k < kDecayGrid; ++k) {
    decay[k] = std::exp(log_lo + static_cast<double>(k) * log_step);
  }

  // Recovery columns c[j] = g F(l2 = rates[j]), stored sample-major so that
  // the cross products below run over contiguous rows.
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = t[i] > 0.0 ? MixtureModel::trend_basis(trend, t[i]) : 0.0;
  }
  std::vector<double> f(n);
  std::vector<double> c(n * kRows);
  double yc[kRows] = {};
  double cc[kRows] = {};
  for (std::size_t j = 0; j < kRows; ++j) {
    exp_cdf_column(t, rates[j], f.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double cij = g[i] * f[i];
      c[i * kRows + j] = cij;
      yc[j] += y[i] * cij;
      cc[j] += cij * cij;
    }
  }

  // Grid row profile: with d = y - s, the SSE at beta* is |d|^2 - beta* <d, c>.
  double row_sse[kRows];
  std::size_t row_arg[kRows] = {};
  std::fill(row_sse, row_sse + kRows, std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < kDecayGrid; ++k) {
    exp_cdf_column(t, decay[k], f.data());
    double dd = 0.0;
    double sc[kRows] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const double s = 1.0 - f[i];
      dd += (y[i] - s) * (y[i] - s);
      for (std::size_t j = 0; j < kRows; ++j) sc[j] += s * c[i * kRows + j];
    }
    for (std::size_t j = 0; j < kRows; ++j) {
      const double dc = yc[j] - sc[j];
      const double beta = cc[j] > 0.0 ? std::max(dc / cc[j], 0.0) : 0.0;
      const double sse = dd - beta * dc;
      if (sse < row_sse[j]) {
        row_sse[j] = sse;
        row_arg[j] = k;
      }
    }
  }

  // The exact profile of row j at degradation rate l1, summed from the
  // residuals (the expanded form above cancels to noise near an exact fit).
  struct Point {
    double sse = std::numeric_limits<double>::infinity();
    double l1 = 0.0;
    double beta = 0.0;
  };
  std::vector<double> d(n);
  const auto profile = [&](std::size_t j, double l1) {
    exp_cdf_column(t, l1, f.data());
    double dc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = y[i] - (1.0 - f[i]);
      dc += d[i] * c[i * kRows + j];
    }
    Point p;
    p.l1 = l1;
    p.beta = cc[j] > 0.0 ? std::max(dc / cc[j], 0.0) : 0.0;
    p.sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = d[i] - p.beta * c[i * kRows + j];
      p.sse += r * r;
    }
    return p;
  };
  // Row j profiled: golden section over log l1 within one grid cell either
  // side of the row's best grid rate, kept only when it beats that rate.
  Point profiled[kRows];
  bool done[kRows] = {};
  const auto refine = [&](std::size_t j) -> const Point& {
    if (!done[j]) {
      const std::size_t k = row_arg[j];
      const double lo = log_lo + static_cast<double>(k > 0 ? k - 1 : k) * log_step;
      const double hi = log_lo + static_cast<double>(std::min(k + 1, kDecayGrid - 1)) * log_step;
      const opt::GoldenResult golden = opt::golden_section(
          [&](double x) { return profile(j, std::exp(x)).sse; }, lo, hi, /*x_tol=*/0.0,
          kGoldenSteps);
      const Point at_grid = profile(j, decay[k]);
      const Point at_golden = profile(j, std::exp(golden.x));
      profiled[j] = at_golden.sse < at_grid.sse ? at_golden : at_grid;
      done[j] = true;
    }
    return profiled[j];
  };

  // Local minima of the grid row profile; a flat run counts once, at its
  // start (a clamped beta* = 0 makes every row alike). From each, descend on
  // the profiled rows to a local minimum of theirs.
  std::vector<std::size_t> minima;
  for (std::size_t m = 0; m < kRows; ++m) {
    const bool below_left = m == 0 || row_sse[m] < row_sse[m - 1];
    const bool not_above_right = m + 1 == kRows || row_sse[m] <= row_sse[m + 1];
    if (!below_left || !not_above_right) continue;
    std::size_t j = m;
    for (;;) {
      std::size_t next = j;
      if (j > 0 && refine(j - 1).sse < refine(next).sse) next = j - 1;
      if (j + 1 < kRows && refine(j + 1).sse < refine(next).sse) next = j + 1;
      if (next == j) break;
      j = next;
    }
    if (std::find(minima.begin(), minima.end(), j) == minima.end()) minima.push_back(j);
  }
  std::stable_sort(minima.begin(), minima.end(), [&](std::size_t a, std::size_t b) {
    return profiled[a].sse < profiled[b].sse;
  });
  if (minima.size() > kExactSeeds) minima.resize(kExactSeeds);

  std::vector<num::Vector> seeds;
  for (std::size_t j : minima) {
    seeds.push_back({profiled[j].l1, rates[j], std::max(profiled[j].beta, 1e-12)});
  }
  return seeds;
}

}  // namespace

MixtureModel::MixtureModel(MixtureSpec spec)
    : spec_(spec),
      n1_(family_num_parameters(spec.degradation)),
      n2_(family_num_parameters(spec.recovery)) {}

std::string MixtureModel::paper_label() const {
  return family_paper_label(spec_.degradation) + "-" + family_paper_label(spec_.recovery);
}

std::string MixtureModel::name() const {
  std::string n = std::string("mix-") + std::string(to_string(spec_.degradation)) + "-" +
                  std::string(to_string(spec_.recovery)) + "-" +
                  std::string(to_string(spec_.trend));
  if (has_theta()) n += "-a1decay";
  return n;
}

std::string MixtureModel::description() const {
  return "Mixture P(t) = (1 - F1(t)) + a2(t) F2(t) with F1 = " +
         std::string(to_string(spec_.degradation)) +
         ", F2 = " + std::string(to_string(spec_.recovery)) +
         ", a2 trend = " + std::string(to_string(spec_.trend));
}

std::size_t MixtureModel::num_parameters() const {
  return n1_ + n2_ + 1 + (has_theta() ? 1 : 0);
}

std::vector<std::string> MixtureModel::parameter_names() const {
  std::vector<std::string> names;
  const auto add = [&names](Family f, const std::string& prefix) {
    switch (f) {
      case Family::kExponential:
        names.push_back(prefix + ".rate");
        break;
      case Family::kWeibull:
        names.push_back(prefix + ".scale");
        names.push_back(prefix + ".shape");
        break;
      case Family::kLogNormal:
        names.push_back(prefix + ".mu");
        names.push_back(prefix + ".sigma");
        break;
      case Family::kGamma:
        names.push_back(prefix + ".shape");
        names.push_back(prefix + ".scale");
        break;
    }
  };
  add(spec_.degradation, "F1");
  add(spec_.recovery, "F2");
  names.push_back("beta");
  if (has_theta()) names.push_back("theta");
  return names;
}

std::vector<opt::Bound> MixtureModel::parameter_bounds() const {
  std::vector<opt::Bound> bounds;
  const auto add = [&bounds](Family f) {
    switch (f) {
      case Family::kExponential:
        bounds.push_back(opt::Bound::positive());
        break;
      case Family::kWeibull:
      case Family::kGamma:
        bounds.push_back(opt::Bound::positive());
        bounds.push_back(opt::Bound::positive());
        break;
      case Family::kLogNormal:
        bounds.push_back(opt::Bound::free());      // mu
        bounds.push_back(opt::Bound::positive());  // sigma
        break;
    }
  };
  add(spec_.degradation);
  add(spec_.recovery);
  // beta > 0: all four trends are increasing recovery trends (paper
  // Section V-A: "each of which corresponds to an increasing trend").
  bounds.push_back(opt::Bound::positive());
  if (has_theta()) bounds.push_back(opt::Bound::positive());
  return bounds;
}

double MixtureModel::trend_basis(RecoveryTrend trend, double t) {
  switch (trend) {
    case RecoveryTrend::kConstant: return 1.0;
    case RecoveryTrend::kLinear: return t;
    case RecoveryTrend::kLogarithmic: return t > 0.0 ? std::log(t) : 0.0;
    case RecoveryTrend::kExponential:
      throw std::logic_error("trend_basis: exponential trend is not linear in beta");
  }
  throw std::logic_error("trend_basis: unknown trend");
}

double MixtureModel::evaluate(double t, const num::Vector& p) const {
  if (p.size() != num_parameters()) {
    throw std::invalid_argument("MixtureModel::evaluate: wrong parameter count");
  }
  return mixture_curve<double>(spec_, n1_, n2_, t, std::span<const double>(p));
}

num::Vector MixtureModel::gradient(double t, const num::Vector& p) const {
  if (p.size() != num_parameters()) {
    throw std::invalid_argument("MixtureModel::gradient: wrong parameter count");
  }
  // One seeded dual sweep per parameter through the same generic curve the
  // evaluation uses -- exact derivatives everywhere the curve is smooth (the
  // Gamma shape direction alone falls back to a central difference inside
  // num::gamma_p).
  const MixtureSpec spec = spec_;
  const std::size_t n1 = n1_;
  const std::size_t n2 = n2_;
  return num::dual_gradient(
      [&spec, n1, n2, t](std::span<const num::Dual> q) {
        return mixture_curve<num::Dual>(spec, n1, n2, t, q);
      },
      p);
}

void MixtureModel::eval_batch(std::span<const double> t, const num::Vector& p,
                              std::span<double> out) const {
  if (p.size() != num_parameters()) {
    throw std::invalid_argument("MixtureModel::eval_batch: wrong parameter count");
  }
  if (out.size() != t.size()) {
    throw std::invalid_argument("eval_batch: out size must match t size");
  }
  if (has_exact_starts() &&
      !std::all_of(p.begin(), p.end(), [](double x) { return std::isfinite(x); })) {
    // A rate or beta that overflowed is no curve: the NaN makes LM reject the
    // step that overflowed it. The step limit of the recovery rate is reached
    // at a finite rate (see kStepRateTimesTmin), so no fit needs an infinite
    // parameter.
    std::fill(out.begin(), out.end(), std::numeric_limits<double>::quiet_NaN());
    return;
  }
  if (num::batch_simd_enabled()) {
    mixture_batch<num::f64x4, false>(spec_, n1_, n2_, p.data(), t, out.data(), nullptr);
  } else {
    mixture_batch<num::f64x4_generic, false>(spec_, n1_, n2_, p.data(), t, out.data(),
                                             nullptr);
  }
}

void MixtureModel::gradient_batch(std::span<const double> t, const num::Vector& p,
                                  num::Matrix* out) const {
  if (p.size() != num_parameters()) {
    throw std::invalid_argument("MixtureModel::gradient_batch: wrong parameter count");
  }
  if (num::batch_simd_enabled()) {
    mixture_batch<num::f64x4, true>(spec_, n1_, n2_, p.data(), t, nullptr, out);
  } else {
    mixture_batch<num::f64x4_generic, true>(spec_, n1_, n2_, p.data(), t, nullptr, out);
  }
}

bool MixtureModel::has_exact_starts() const {
  return spec_.degradation == Family::kExponential && spec_.recovery == Family::kExponential &&
         spec_.trend != RecoveryTrend::kExponential && !has_theta();
}

std::vector<num::Vector> MixtureModel::initial_guesses(
    const data::PerformanceSeries& fit) const {
  if (has_exact_starts()) return exp_exp_variable_projection(fit, spec_.trend);
  const double td = fit.trough_time();
  const double tn = std::max(fit.times().back(), 2.0);
  const double vn = fit.values().back();

  const auto build = [&](double degradation_stretch) {
    std::vector<double> p;
    degradation_guess(spec_.degradation, td * degradation_stretch, &p);
    recovery_guess(spec_.recovery, td, tn, &p);
    // Solve beta from the terminal condition
    //   vn = S1(tn) + a2(tn) F2(tn).
    const double s1 = 1.0 - family_cdf(spec_.degradation,
                                       std::span<const double>(p).subspan(0, n1_), tn);
    const double f2 = family_cdf(spec_.recovery,
                                 std::span<const double>(p).subspan(n1_, n2_), tn);
    const double target = std::max(vn - s1, 1e-3);
    double b = 0.1;
    if (spec_.trend == RecoveryTrend::kExponential) {
      b = std::log(std::max(target / std::max(f2, 1e-6), 1e-3)) / tn;
      b = std::max(b, 1e-6);
    } else {
      const double basis = trend_basis(spec_.trend, tn);
      if (basis * f2 > 1e-9) b = target / (basis * f2);
      b = std::max(b, 1e-6);
    }
    p.push_back(b);
    if (has_theta()) p.push_back(1e-3);  // near-constant a1 to start
    return num::Vector(p.begin(), p.end());
  };

  return {build(1.0), build(2.5)};
}

std::pair<num::Vector, num::Vector> MixtureModel::search_box(
    const data::PerformanceSeries& fit) const {
  const double tn = std::max(fit.times().back(), 2.0);
  std::vector<double> lo;
  std::vector<double> hi;
  family_box(spec_.degradation, tn, &lo, &hi);
  family_box(spec_.recovery, tn, &lo, &hi);
  switch (spec_.trend) {
    case RecoveryTrend::kConstant:
      lo.push_back(0.05);
      hi.push_back(2.0);
      break;
    case RecoveryTrend::kLinear:
      lo.push_back(1e-4);
      hi.push_back(2.0 / tn);
      break;
    case RecoveryTrend::kLogarithmic:
      lo.push_back(0.01);
      hi.push_back(2.0);
      break;
    case RecoveryTrend::kExponential:
      lo.push_back(1e-6);
      hi.push_back(2.0 / tn);
      break;
  }
  if (has_theta()) {
    lo.push_back(1e-5);
    hi.push_back(0.5);
  }
  return {num::Vector(lo.begin(), lo.end()), num::Vector(hi.begin(), hi.end())};
}

void MixtureModel::tune_multistart(opt::MultistartOptions& options,
                                   const FitObjective& objective) const {
  if (!has_exact_starts() || !objective.plain_sse) return;
  // LM from the exact starts, with no sampled or jittered starts and no
  // polish. The tighter gradient tolerance stands in for the polish: at the
  // default 1e-10 LM stops up to ~2e-8 relative above the optimum.
  options.sampled_starts = 0;
  options.jitter_per_start = 0;
  options.polish_with_nelder_mead = false;
  options.warm_start.clear();
  options.lm.gradient_tol = std::min(options.lm.gradient_tol, 1e-14);
}

}  // namespace prm::core
