// Prediction queries on a fitted model (paper Section I's motivation: "when
// will the system recover to a specified level?").
//
// Closed forms are used when the model provides them (both bathtub models);
// otherwise the queries fall back to bracketed root finding / Brent
// minimization on the fitted curve.
#pragma once

#include <optional>

#include "core/fitting.hpp"

namespace prm::core {

/// Time at which the fitted curve first reaches `level` after time `after`
/// (default: after the trough). Searches up to `horizon_factor` times the
/// observed horizon; nullopt when the curve never reaches the level there.
std::optional<double> predict_recovery_time(const FitResult& fit, double level,
                                            std::optional<double> after = std::nullopt,
                                            double horizon_factor = 4.0);

/// Time at which the fitted curve attains its minimum on [0, horizon].
/// Uses the model's closed form when available.
double predict_trough_time(const FitResult& fit, std::optional<double> horizon = std::nullopt);

/// Minimum performance value predicted by the fitted curve.
double predict_trough_value(const FitResult& fit,
                            std::optional<double> horizon = std::nullopt);

/// Time to recover to the pre-hazard performance level P(0) (the series'
/// first observation); nullopt when never reached within the search horizon.
std::optional<double> predict_full_recovery_time(const FitResult& fit,
                                                 double horizon_factor = 4.0);

/// Area under the fitted curve between t0 and t1: the model's closed form
/// (Eqs. 3/6) when present, adaptive Simpson otherwise.
double curve_area(const ResilienceModel& model, const num::Vector& params, double t0,
                  double t1);

}  // namespace prm::core
