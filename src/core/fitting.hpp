// Least-squares fitting pipeline (paper Section III-A, Eq. 8).
//
// fit_model() estimates a model's parameters from the first n - holdout
// samples of a series by minimizing sum_i (R(t_i) - P(t_i; theta))^2. The
// solver works in an unconstrained internal coordinate system (see
// optimize/transforms.hpp) and runs multistart Levenberg-Marquardt, seeded by
// the model's own data-driven initial guesses, with a Nelder-Mead polish of
// the multistart winner.
#pragma once

#include <limits>
#include <memory>
#include <optional>

#include "core/model.hpp"
#include "data/time_series.hpp"
#include "optimize/multistart.hpp"
#include "optimize/robust.hpp"

namespace prm::core {

struct FitOptions {
  opt::MultistartOptions multistart;  ///< Solver knobs (seeded, deterministic).

  /// Loss applied to each residual (Eq. 8 uses kSquared). kHuber/kCauchy
  /// bound the influence of outliers; `loss_scale` is the inlier threshold
  /// in the units of the performance index.
  opt::LossKind loss = opt::LossKind::kSquared;
  double loss_scale = 0.01;

  /// Optional per-sample weights over the FIT window (weighted least
  /// squares: minimize sum w_i r_i^2). Empty = unweighted. Must be
  /// non-negative and match the fit-window length; throws otherwise.
  /// Composable with `loss` (weights apply before whitening).
  std::vector<double> weights;

  /// Optional warm start: a previous parameter vector (external/bounded
  /// space, e.g. FitResult::parameters() from an earlier fit of the same
  /// stream) assumed to be near the new optimum. When set, the solver runs
  /// only this seed (plus `multistart.warm_jitter` jittered copies and
  /// `multistart.warm_sampled_starts` safety starts) instead of the full
  /// multistart -- the incremental-refit fast path used by prm::live. A
  /// model whose first guess is already the optimum may decline the seed
  /// (ResilienceModel::tune_multistart; competing-risks does under the plain
  /// SSE). Out-of-bounds components are clipped into the parameter bounds;
  /// throws std::invalid_argument on a size mismatch.
  std::optional<num::Vector> warm_start;

  /// Use the model's analytic (dual-number) gradient for the LM Jacobian,
  /// for every loss kind (robust losses are chain-ruled through the
  /// whitening). false forces the central-difference fallback, which costs
  /// 2 * num_parameters residual sweeps per Jacobian -- only useful for
  /// cross-checks and the bench comparison.
  bool analytic_jacobian = true;
};

/// A fitted model bound to the series it was fitted on.
class FitResult {
 public:
  FitResult() = default;
  FitResult(std::shared_ptr<const ResilienceModel> model, num::Vector parameters,
            data::PerformanceSeries series, std::size_t holdout);

  const ResilienceModel& model() const { return *model_; }
  std::shared_ptr<const ResilienceModel> model_ptr() const { return model_; }
  const num::Vector& parameters() const noexcept { return parameters_; }
  const data::PerformanceSeries& series() const noexcept { return series_; }
  std::size_t holdout() const noexcept { return holdout_; }
  std::size_t fit_count() const noexcept { return series_.size() - holdout_; }

  /// The fitting window (first n - holdout samples).
  data::PerformanceSeries fit_window() const { return series_.head(fit_count()); }

  /// The prediction window (last holdout samples).
  data::PerformanceSeries holdout_window() const { return series_.tail(holdout_); }

  /// Model performance at time t.
  double evaluate(double t) const { return model_->evaluate(t, parameters_); }

  /// Model predictions on the full sample grid.
  std::vector<double> predictions() const;

  /// Model predictions on the fitting / holdout grids.
  std::vector<double> fit_predictions() const;
  std::vector<double> holdout_predictions() const;

  // Solver diagnostics, populated by fit_model().
  double sse = std::numeric_limits<double>::infinity();  ///< Over the fit window.
  opt::StopReason stop_reason = opt::StopReason::kNumericalFailure;
  int starts_tried = 0;
  int iterations = 0;  ///< The winning start's LM iterations (plus its polish).
  /// Residual evaluations of the whole fit: every start plus the polish.
  int function_evaluations = 0;

  /// True when the fit produced finite parameters and cost.
  bool success() const;

 private:
  std::shared_ptr<const ResilienceModel> model_;
  num::Vector parameters_;
  data::PerformanceSeries series_;
  std::size_t holdout_ = 0;
};

/// Fit `model` to all but the last `holdout` samples of `series`.
/// Throws std::invalid_argument when the fitting window is smaller than the
/// parameter count + 1.
FitResult fit_model(const ResilienceModel& model, const data::PerformanceSeries& series,
                    std::size_t holdout, const FitOptions& options = {});

/// Convenience overload: model looked up in the registry by name.
FitResult fit_model(const std::string& model_name, const data::PerformanceSeries& series,
                    std::size_t holdout, const FitOptions& options = {});

}  // namespace prm::core
