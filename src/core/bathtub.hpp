// Bathtub-shaped hazard resilience models (paper Section II-A).
//
// Both models use a reliability-engineering hazard function directly as the
// performance curve P(t) = c * lambda(t); the data are normalized so that
// P(0) = 1 and the continuity constant c is absorbed into the hazard
// parameters (see DESIGN.md, "Normalizing constant c").
//
//   Quadratic (Eq. 1):        lambda(t) = alpha + beta t + gamma t^2
//     bathtub-shaped for -2 sqrt(alpha gamma) < beta < 0, alpha, gamma > 0.
//     Area (Eq. 3):           alpha t + beta t^2/2 + gamma t^3/3
//     Recovery time (Eq. 2):  larger root of gamma t^2 + beta t + (alpha - L)
//
//   Competing risks (Eq. 4, Hjorth-type): lambda(t) = alpha/(1+beta t) + 2 gamma t
//     Area (Eq. 6):           (alpha/beta) ln(1+beta t) + gamma t^2
//     Recovery time (Eq. 5):  larger root of
//                             2 beta gamma t^2 + (2 gamma - L beta) t + (alpha - L)
#pragma once

#include "core/model.hpp"

namespace prm::core {

/// Quadratic bathtub model. Parameters [alpha, beta, gamma] with
/// alpha > 0, beta < 0, gamma > 0.
class QuadraticBathtubModel final : public ResilienceModel {
 public:
  std::string name() const override { return "quadratic"; }
  std::string description() const override {
    return "Quadratic bathtub hazard P(t) = alpha + beta t + gamma t^2";
  }
  std::size_t num_parameters() const override { return 3; }
  std::vector<std::string> parameter_names() const override {
    return {"alpha", "beta", "gamma"};
  }
  std::vector<opt::Bound> parameter_bounds() const override;

  double evaluate(double t, const num::Vector& params) const override;
  num::Vector gradient(double t, const num::Vector& params) const override;

  /// SIMD batch kernels (4 samples per step; bit-identical to evaluate()).
  void eval_batch(std::span<const double> t, const num::Vector& params,
                  std::span<double> out) const override;
  void gradient_batch(std::span<const double> t, const num::Vector& params,
                      num::Matrix* out) const override;

  /// One guess: the exact least-squares fit under the bathtub signs
  /// (alpha > 0, beta < 0, gamma > 0). That is the unconstrained fit when it
  /// has those signs, else the best fit on a face of the sign orthant (some
  /// coefficients 0, the others keeping their signs), clipped into the
  /// bounds.
  std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& fit_window) const override;
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries& fit_window) const override;

  std::optional<double> area_closed_form(const num::Vector& params, double t0,
                                         double t1) const override;
  std::optional<double> recovery_time_closed_form(const num::Vector& params, double level,
                                                  double after) const override;
  std::optional<double> trough_closed_form(const num::Vector& params) const override;

  /// Under a convex loss (squared or Huber, weighted or not) the objective
  /// is convex over the sign region, so no jittered start and no polish can
  /// reach a lower minimum. For the plain SSE the guess is the optimum; a
  /// weighted or Huber fit adds one sampled start inside the region, since
  /// its optimum may lie off the guess's face. Cauchy keeps the full start
  /// set.
  void tune_multistart(opt::MultistartOptions& options,
                       const FitObjective& objective) const override;

  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<QuadraticBathtubModel>(*this);
  }

  /// True when params satisfy the paper's full bathtub-shape condition
  /// -2 sqrt(alpha gamma) < beta < 0 (positive hazard with interior minimum).
  static bool is_bathtub(const num::Vector& params);

  /// Exact unconstrained linear least-squares polynomial fit (degree 2), the
  /// initial guess when it has the bathtub signs; exposed for tests.
  static num::Vector linear_ls_fit(const data::PerformanceSeries& fit_window);
};

/// Competing risks (Hjorth-type) model. Parameters [alpha, beta, gamma],
/// all > 0: alpha/(1+beta t) is the decreasing risk, 2 gamma t the
/// increasing (wear-out / recovery) term.
class CompetingRisksModel final : public ResilienceModel {
 public:
  std::string name() const override { return "competing-risks"; }
  std::string description() const override {
    return "Competing risks hazard P(t) = alpha/(1 + beta t) + 2 gamma t";
  }
  std::size_t num_parameters() const override { return 3; }
  std::vector<std::string> parameter_names() const override {
    return {"alpha", "beta", "gamma"};
  }
  std::vector<opt::Bound> parameter_bounds() const override;

  double evaluate(double t, const num::Vector& params) const override;
  num::Vector gradient(double t, const num::Vector& params) const override;

  /// SIMD batch kernels (4 samples per step; bit-identical to evaluate()).
  void eval_batch(std::span<const double> t, const num::Vector& params,
                  std::span<double> out) const override;
  void gradient_batch(std::span<const double> t, const num::Vector& params,
                      num::Matrix* out) const override;

  /// One guess: the least-squares optimum by variable projection (Golub &
  /// Pereyra 1973), clipped into the positive bounds. The curve is linear in
  /// alpha and gamma, so they are solved exactly (alpha, gamma >= 0) at each
  /// beta of a log-spaced scan refined by Brent's method.
  std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& fit_window) const override;
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries& fit_window) const override;

  std::optional<double> area_closed_form(const num::Vector& params, double t0,
                                         double t1) const override;
  std::optional<double> recovery_time_closed_form(const num::Vector& params, double level,
                                                  double after) const override;
  std::optional<double> trough_closed_form(const num::Vector& params) const override;

  /// For the plain unweighted SSE the guess is the least-squares optimum, so
  /// LM runs from it alone: no jittered or sampled start, no polish, and no
  /// warm start either (a refit is then its window's cold fit, which costs
  /// less than LM from the previous solution and its jittered copy, and
  /// cannot land on a seed parked at a bound). Robust losses and weights
  /// move the optimum away from the guess and keep the full start set.
  void tune_multistart(opt::MultistartOptions& options,
                       const FitObjective& objective) const override;

  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<CompetingRisksModel>(*this);
  }
};

}  // namespace prm::core
