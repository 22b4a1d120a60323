// Mixture-distribution resilience models (paper Section II-B, Eq. 7):
//
//   P(t) = a1(t) * (1 - F1(t)) + a2(t) * F2(t)
//
// F1 models degradation (performance decays as F1 accumulates), F2 models
// recovery. The recovery trend a2(t) is one of {beta, beta t, e^{beta t},
// beta ln t}. F1/F2 may be any of the supported families; the paper
// evaluates the four Exponential/Weibull pairings (Exp-Exp, Wei-Exp,
// Exp-Wei, Wei-Wei) with a2(t) = beta ln t.
//
// The degradation transition a1(t): Eq. 7 requires lim_{t->0} a1 = 1 and
// lim_{t->inf} a1 = 0, but the paper's evaluation "held [it] constant at
// a1(t) = 1 for simplicity", violating the second limit. Both options are
// provided: kConstant reproduces the paper; kExpDecay (a1 = e^{-theta t},
// one extra parameter) satisfies Eq. 7's stated limits.
//
// Parameter layout: [F1 params..., F2 params..., beta, (theta)].
//   Exponential: {rate}
//   Weibull:     {scale, shape}
//   LogNormal:   {mu, sigma}       (extension beyond the paper)
//   Gamma:       {shape, scale}    (extension beyond the paper)
#pragma once

#include <span>

#include "core/model.hpp"

namespace prm::core {

enum class Family { kExponential, kWeibull, kLogNormal, kGamma };
enum class RecoveryTrend { kConstant, kLinear, kExponential, kLogarithmic };

/// The degradation transition a1(t) of Eq. 7 (see the header comment).
enum class DegradationTrend {
  kConstant,  ///< a1(t) = 1 (the paper's simplification).
  kExpDecay,  ///< a1(t) = e^{-theta t}, theta > 0 (Eq. 7's stated limits).
};

std::string_view to_string(Family family);
std::string_view to_string(RecoveryTrend trend);
std::string_view to_string(DegradationTrend trend);

/// Number of parameters of a family's CDF.
std::size_t family_num_parameters(Family family);

/// CDF of `family` at t with the given parameter slice.
/// Throws std::invalid_argument on wrong parameter count.
double family_cdf(Family family, std::span<const double> params, double t);

struct MixtureSpec {
  Family degradation = Family::kWeibull;     ///< F1
  Family recovery = Family::kExponential;    ///< F2
  RecoveryTrend trend = RecoveryTrend::kLogarithmic;  ///< a2(t) shape
  DegradationTrend a1 = DegradationTrend::kConstant;  ///< a1(t) shape
};

class MixtureModel final : public ResilienceModel {
 public:
  explicit MixtureModel(MixtureSpec spec);

  const MixtureSpec& spec() const noexcept { return spec_; }

  /// Paper-style label, e.g. "Wei-Exp".
  std::string paper_label() const;

  std::string name() const override;
  std::string description() const override;
  std::size_t num_parameters() const override;
  std::vector<std::string> parameter_names() const override;
  std::vector<opt::Bound> parameter_bounds() const override;

  double evaluate(double t, const num::Vector& params) const override;

  /// Exact dP/dparams by dual numbers through the same curve as evaluate()
  /// (the Gamma shape direction alone is a central difference).
  num::Vector gradient(double t, const num::Vector& params) const override;

  /// SIMD batch kernels: whole-series evaluation / analytic gradient rows in
  /// 4-lane chunks with vectorized exp/log/expm1. The Exponential and
  /// Weibull families are fully vectorized; the LogNormal CDF and the Gamma
  /// family fall back to per-lane scalar calls (no pack form of the
  /// incomplete gamma), with the surrounding chain still vectorized.
  void eval_batch(std::span<const double> t, const num::Vector& params,
                  std::span<double> out) const override;
  void gradient_batch(std::span<const double> t, const num::Vector& params,
                      num::Matrix* out) const override;

  std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& fit_window) const override;
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries& fit_window) const override;

  /// Exp-Exp with a linear-in-beta trend and a1 = 1 only: under the plain
  /// SSE, LM runs from the exact starts alone (no sampled or jittered starts,
  /// no polish, warm seed declined, gradient tolerance 1e-14).
  void tune_multistart(opt::MultistartOptions& options,
                       const FitObjective& objective) const override;

  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<MixtureModel>(*this);
  }

  /// The recovery-trend basis g(t) with a2(t) = beta * g(t) for the linear-
  /// in-beta trends; returns e^{beta t} handling inside evaluate() for the
  /// exponential trend. Exposed for tests.
  static double trend_basis(RecoveryTrend trend, double t);

 private:
  bool has_theta() const { return spec_.a1 == DegradationTrend::kExpDecay; }
  /// F1 = F2 = Exponential, a trend linear in beta and a1 = 1: the
  /// initial guesses are exact variable-projection starts.
  bool has_exact_starts() const;

  MixtureSpec spec_;
  std::size_t n1_;  ///< F1 parameter count
  std::size_t n2_;  ///< F2 parameter count
};

}  // namespace prm::core
