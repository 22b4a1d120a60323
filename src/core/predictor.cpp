#include "core/predictor.hpp"

#include <cmath>

#include "numerics/integrate.hpp"
#include "numerics/roots.hpp"
#include "optimize/brent.hpp"

namespace prm::core {

namespace {
double observed_horizon(const FitResult& fit) {
  return std::max(fit.series().times().back(), 1.0);
}
}  // namespace

double predict_trough_time(const FitResult& fit, std::optional<double> horizon) {
  const double h = horizon.value_or(observed_horizon(fit));
  if (const auto t = fit.model().trough_closed_form(fit.parameters())) {
    return std::clamp(*t, 0.0, h);
  }
  const auto f = [&fit](double t) { return fit.evaluate(t); };
  return opt::scan_then_brent(f, 0.0, h, 256).x;
}

double predict_trough_value(const FitResult& fit, std::optional<double> horizon) {
  return fit.evaluate(predict_trough_time(fit, horizon));
}

std::optional<double> predict_recovery_time(const FitResult& fit, double level,
                                            std::optional<double> after,
                                            double horizon_factor) {
  // Not value_or: its argument, a trough search, would run even when unused.
  const double start = after ? *after : predict_trough_time(fit);
  const double horizon = horizon_factor * observed_horizon(fit);

  if (const auto t = fit.model().recovery_time_closed_form(fit.parameters(), level, start)) {
    if (*t <= horizon) return *t;
    return std::nullopt;
  }

  const auto f = [&fit, level](double t) { return fit.evaluate(t) - level; };
  return num::first_crossing(f, start, horizon, 1024);
}

std::optional<double> predict_full_recovery_time(const FitResult& fit,
                                                 double horizon_factor) {
  return predict_recovery_time(fit, fit.series().value(0), std::nullopt, horizon_factor);
}

double curve_area(const ResilienceModel& model, const num::Vector& params, double t0,
                  double t1) {
  if (const auto a = model.area_closed_form(params, t0, t1)) return *a;
  const auto f = [&model, &params](double t) { return model.evaluate(t, params); };
  return num::adaptive_simpson(f, t0, t1, 1e-10).value;
}

}  // namespace prm::core
