#include "core/fitting.hpp"

#include <cmath>
#include <stdexcept>

namespace prm::core {

FitResult::FitResult(std::shared_ptr<const ResilienceModel> model, num::Vector parameters,
                     data::PerformanceSeries series, std::size_t holdout)
    : model_(std::move(model)),
      parameters_(std::move(parameters)),
      series_(std::move(series)),
      holdout_(holdout) {
  if (!model_) throw std::invalid_argument("FitResult: null model");
  if (parameters_.size() != model_->num_parameters()) {
    throw std::invalid_argument("FitResult: parameter count mismatch");
  }
  if (holdout_ >= series_.size()) {
    throw std::invalid_argument("FitResult: holdout must be < series size");
  }
}

std::vector<double> FitResult::predictions() const {
  std::vector<double> out(series_.size());
  model_->eval_batch(series_.times(), parameters_, out);
  return out;
}

std::vector<double> FitResult::fit_predictions() const {
  std::vector<double> out(fit_count());
  model_->eval_batch(series_.times().first(fit_count()), parameters_, out);
  return out;
}

std::vector<double> FitResult::holdout_predictions() const {
  std::vector<double> out(holdout_);
  model_->eval_batch(series_.times().subspan(fit_count()), parameters_, out);
  return out;
}

bool FitResult::success() const {
  if (!std::isfinite(sse)) return false;
  for (double p : parameters_) {
    if (!std::isfinite(p)) return false;
  }
  return stop_reason != opt::StopReason::kNumericalFailure;
}

FitResult fit_model(const ResilienceModel& model, const data::PerformanceSeries& series,
                    std::size_t holdout, const FitOptions& options) {
  if (holdout >= series.size()) {
    throw std::invalid_argument("fit_model: holdout must be < series size");
  }
  const data::PerformanceSeries fit_window = series.head(series.size() - holdout);
  if (fit_window.size() < model.num_parameters() + 1) {
    throw std::invalid_argument("fit_model: fitting window smaller than parameter count + 1");
  }

  const opt::ParameterTransform transform(model.parameter_bounds());

  // Per-sample weights: sqrt applied once so that ||r||^2 = sum w_i e_i^2.
  std::vector<double> sqrt_w;
  if (!options.weights.empty()) {
    if (options.weights.size() != fit_window.size()) {
      throw std::invalid_argument("fit_model: weights must match the fit-window length");
    }
    sqrt_w.resize(options.weights.size());
    for (std::size_t i = 0; i < options.weights.size(); ++i) {
      if (!(options.weights[i] >= 0.0) || !std::isfinite(options.weights[i])) {
        throw std::invalid_argument("fit_model: weights must be finite and non-negative");
      }
      sqrt_w[i] = std::sqrt(options.weights[i]);
    }
  }

  // Residuals in internal (unconstrained) coordinates, whole-series-at-a-time
  // through the model's SIMD batch kernel. The thread_local scratch vectors
  // make the hot form allocation-free after each pool thread's first call;
  // that is safe because fits never recurse into their own residual closures
  // and the buffers carry no state between calls.
  const auto residuals_into = [&model, &fit_window, &transform, sqrt_w](
                                  const num::Vector& u, num::Vector& out) {
    thread_local num::Vector p_ext;
    transform.to_external_into(u, &p_ext);
    out.resize(fit_window.size());
    model.eval_batch(fit_window.times(), p_ext, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      double r = fit_window.value(i) - out[i];
      if (!sqrt_w.empty()) r *= sqrt_w[i];
      out[i] = r;
    }
  };
  const auto residuals = [residuals_into](const num::Vector& u) {
    num::Vector r;
    residuals_into(u, r);
    return r;
  };

  // Jacobian rows from the model's batched analytic gradient and the
  // transform chain rule: dr_i/du_j = -dP/dp_j * dp_j/du_j.
  const auto jacobian_into = [&model, &fit_window, &transform, sqrt_w](
                                 const num::Vector& u, num::Matrix& out) {
    thread_local num::Vector p_ext;
    thread_local num::Vector chain;
    transform.to_external_into(u, &p_ext);
    transform.dexternal_dinternal_into(u, &chain);
    model.gradient_batch(fit_window.times(), p_ext, &out);
    for (std::size_t i = 0; i < out.rows(); ++i) {
      const double w = sqrt_w.empty() ? 1.0 : sqrt_w[i];
      for (std::size_t c = 0; c < out.cols(); ++c) {
        out(i, c) *= -chain[c] * w;
      }
    }
  };
  const auto jacobian = [jacobian_into](const num::Vector& u) {
    num::Matrix j;
    jacobian_into(u, j);
    return j;
  };

  // Whitening the full problem keeps the analytic Jacobian for robust losses
  // too (each row is chain-ruled through the whitening derivative), so no
  // loss kind pays the 2*p finite-difference residual sweeps per iteration
  // unless analytic_jacobian is explicitly turned off.
  opt::ResidualProblem base;
  base.residuals = residuals;
  base.residuals_into = residuals_into;
  if (options.analytic_jacobian) {
    base.jacobian = jacobian;
    base.jacobian_into = jacobian_into;
  }
  base.num_parameters = model.num_parameters();
  base.num_residuals = fit_window.size();
  const opt::ResidualProblem problem =
      opt::make_robust_problem(std::move(base), options.loss, options.loss_scale);

  // External-space points that violate the bounds are clipped into them by a
  // tiny margin rather than dropped.
  const auto clip_into_bounds = [&transform](num::Vector p) {
    const auto& bounds = transform.bounds();
    for (std::size_t i = 0; i < p.size(); ++i) {
      switch (bounds[i].kind) {
        case opt::BoundKind::kPositive:
          p[i] = std::max(p[i], 1e-12);
          break;
        case opt::BoundKind::kNegative:
          p[i] = std::min(p[i], -1e-12);
          break;
        case opt::BoundKind::kInterval: {
          const double pad = 1e-9 * (bounds[i].hi - bounds[i].lo);
          p[i] = std::clamp(p[i], bounds[i].lo + pad, bounds[i].hi - pad);
          break;
        }
        case opt::BoundKind::kFree:
          break;
      }
    }
    return p;
  };

  // Warm start (previous solution) mapped to internal space, then the
  // model's start policy for this objective, which may decline the seed.
  opt::MultistartOptions ms_options = options.multistart;
  if (options.warm_start) {
    if (options.warm_start->size() != model.num_parameters()) {
      throw std::invalid_argument("fit_model: warm start size does not match the model");
    }
    ms_options.warm_start = transform.to_internal(clip_into_bounds(*options.warm_start));
  }
  FitObjective objective;
  objective.plain_sse = options.loss == opt::LossKind::kSquared && options.weights.empty();
  objective.convex_loss = options.loss != opt::LossKind::kCauchy;
  model.tune_multistart(ms_options, objective);

  // Starting points: model guesses mapped to internal space. On the warm
  // path the multistart driver ignores the regular start set entirely, so
  // skip generating it — initial_guesses() can be expensive (the nn family
  // trains networks in there), and live refits take this branch constantly.
  std::vector<num::Vector> starts;
  if (ms_options.warm_start.empty()) {
    for (const num::Vector& g : model.initial_guesses(fit_window)) {
      starts.push_back(transform.to_internal(clip_into_bounds(g)));
    }
  }

  // Search box corners mapped to internal space (the transforms are
  // monotone per coordinate, so the box maps to a box).
  const auto [box_lo, box_hi] = model.search_box(fit_window);
  num::Vector lo_int = transform.to_internal(box_lo);
  num::Vector hi_int = transform.to_internal(box_hi);
  // The negative-bound transform is order-reversing; normalize the box.
  for (std::size_t i = 0; i < lo_int.size(); ++i) {
    if (lo_int[i] > hi_int[i]) std::swap(lo_int[i], hi_int[i]);
  }

  const opt::MultistartResult ms =
      opt::multistart_least_squares(problem, starts, lo_int, hi_int, ms_options);

  num::Vector best_params;
  if (ms.best.parameters.size() == model.num_parameters()) {
    best_params = transform.to_external(ms.best.parameters);
  } else {
    best_params = model.initial_guesses(fit_window).front();
  }

  FitResult result(std::shared_ptr<const ResilienceModel>(model.clone()),
                   std::move(best_params), series, holdout);
  // Report the PLAIN sum of squared errors regardless of the training loss,
  // so SSE stays comparable across loss choices (and matches Eq. 9).
  double plain_sse = 0.0;
  std::vector<double> pred(fit_window.size());
  model.eval_batch(fit_window.times(), result.parameters(), pred);
  for (std::size_t i = 0; i < fit_window.size(); ++i) {
    const double e = fit_window.value(i) - pred[i];
    plain_sse += e * e;
  }
  result.sse = std::isfinite(ms.best.cost) ? plain_sse
                                           : std::numeric_limits<double>::infinity();
  result.stop_reason = ms.best.stop_reason;
  result.starts_tried = ms.starts_tried;
  result.iterations = ms.best.iterations;
  result.function_evaluations = ms.function_evaluations;
  return result;
}

FitResult fit_model(const std::string& model_name, const data::PerformanceSeries& series,
                    std::size_t holdout, const FitOptions& options) {
  const ModelPtr model = ModelRegistry::instance().create(model_name);
  return fit_model(*model, series, holdout, options);
}

}  // namespace prm::core
