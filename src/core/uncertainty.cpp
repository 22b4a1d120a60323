#include "core/uncertainty.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/predictor.hpp"
#include "par/parallel.hpp"
#include "stats/bootstrap.hpp"

namespace prm::core {

namespace {

IntervalEstimate summarize(double point, std::vector<double>& samples, double alpha) {
  IntervalEstimate est;
  est.point = point;
  est.samples = static_cast<int>(samples.size());
  if (samples.size() >= 2) {
    est.lower = stats::empirical_quantile(samples, alpha / 2.0);
    est.upper = stats::empirical_quantile(samples, 1.0 - alpha / 2.0);
  } else {
    est.lower = point;
    est.upper = point;
  }
  return est;
}

}  // namespace

UncertaintyResult prediction_uncertainty(const FitResult& fit,
                                         const UncertaintyOptions& options) {
  if (fit.holdout() < 1) {
    throw std::invalid_argument("prediction_uncertainty: fit needs a holdout window");
  }
  if (options.replicates < 10) {
    throw std::invalid_argument("prediction_uncertainty: need >= 10 replicates");
  }

  const data::PerformanceSeries& series = fit.series();
  const data::PerformanceSeries fit_window = fit.fit_window();
  const std::size_t n_fit = fit_window.size();

  // Centered residuals over the fit window.
  std::vector<double> residuals(n_fit);
  double mean_res = 0.0;
  for (std::size_t i = 0; i < n_fit; ++i) {
    residuals[i] = fit_window.value(i) - fit.evaluate(fit_window.time(i));
    mean_res += residuals[i];
  }
  mean_res /= static_cast<double>(n_fit);
  for (double& r : residuals) r -= mean_res;

  // The fitted curve over the fit window is replicate-invariant.
  std::vector<double> fitted(n_fit);
  for (std::size_t i = 0; i < n_fit; ++i) fitted[i] = fit.evaluate(series.time(i));

  // One replicate, self-contained: all randomness comes from a stream seeded
  // by the replicate index, so results are index-addressed and independent of
  // scheduling. The reduction below walks them in replicate order.
  struct Replicate {
    bool ok = false;
    double trough_t = 0.0;
    double trough_v = 0.0;
    std::optional<double> recovery;
    std::vector<double> metrics;
  };
  const auto run_replicate = [&](std::size_t rep) {
    Replicate result;
    std::mt19937_64 rng(options.seed ^ (static_cast<std::uint64_t>(rep) + 1));
    std::uniform_int_distribution<std::size_t> pick(0, n_fit - 1);
    // Resampled series: fitted curve + bootstrap residuals on the fit
    // window; the holdout keeps its observed values (it is never fit).
    std::vector<double> values(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      values[i] = i < n_fit ? fitted[i] + residuals[pick(rng)] : series.value(i);
    }
    data::PerformanceSeries resampled(series.name(),
                                      std::vector<double>(series.times().begin(),
                                                          series.times().end()),
                                      std::move(values));
    FitOptions fit_opts = options.fit;
    fit_opts.multistart.seed = options.seed + static_cast<std::uint64_t>(rep) + 1;
    FitResult refit;
    try {
      refit = fit_model(fit.model(), resampled, fit.holdout(), fit_opts);
    } catch (const std::exception&) {
      return result;
    }
    if (!refit.success()) return result;
    result.ok = true;
    result.trough_t = predict_trough_time(refit);
    result.trough_v = refit.evaluate(result.trough_t);
    result.recovery = predict_recovery_time(refit, options.recovery_level, result.trough_t);
    const auto metrics = predictive_metrics(refit);
    result.metrics.reserve(metrics.size());
    for (const auto& m : metrics) result.metrics.push_back(m.predicted);
    return result;
  };
  const std::vector<Replicate> replicates = par::parallel_map<Replicate>(
      static_cast<std::size_t>(options.replicates), run_replicate, options.threads);

  UncertaintyResult out;
  std::vector<double> recovery_samples;
  std::vector<double> trough_t_samples;
  std::vector<double> trough_v_samples;
  std::vector<std::vector<double>> metric_samples(kAllMetrics.size());
  int no_recovery = 0;
  for (const Replicate& r : replicates) {
    if (!r.ok) {
      ++out.replicates_failed;
      continue;
    }
    ++out.replicates_used;
    trough_t_samples.push_back(r.trough_t);
    trough_v_samples.push_back(r.trough_v);
    if (r.recovery) {
      recovery_samples.push_back(*r.recovery);
    } else {
      ++no_recovery;
    }
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
      metric_samples[k].push_back(r.metrics[k]);
    }
  }
  if (out.replicates_used < 2) {
    throw std::runtime_error("prediction_uncertainty: too few successful replicates");
  }

  const double point_trough = predict_trough_time(fit);
  const double point_recovery =
      predict_recovery_time(fit, options.recovery_level, point_trough)
          .value_or(std::numeric_limits<double>::quiet_NaN());
  out.recovery_time = summarize(point_recovery, recovery_samples, options.alpha);
  out.trough_time = summarize(point_trough, trough_t_samples, options.alpha);
  out.trough_value = summarize(fit.evaluate(point_trough), trough_v_samples, options.alpha);

  const auto point_metrics = predictive_metrics(fit);
  for (std::size_t k = 0; k < kAllMetrics.size(); ++k) {
    out.metrics.emplace_back(
        kAllMetrics[k],
        summarize(point_metrics[k].predicted, metric_samples[k], options.alpha));
  }
  out.no_recovery_rate =
      100.0 * static_cast<double>(no_recovery) /
      static_cast<double>(out.replicates_used);
  return out;
}

}  // namespace prm::core
