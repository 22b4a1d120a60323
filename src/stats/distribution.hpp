// Continuous distribution interface, implemented by stats::Normal. The
// mixture models' F1/F2 CDFs are closed forms in core/mixture.cpp and do not
// go through it.
#pragma once

#include <limits>
#include <memory>
#include <string>

namespace prm::stats {

/// A continuous distribution exposing the pieces reliability modeling needs.
/// Implementations are immutable value types; all methods are pure.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Distribution family name, e.g. "Normal".
  virtual std::string name() const = 0;

  /// Number of parameters (for information criteria).
  virtual std::size_t num_parameters() const = 0;

  /// Cumulative distribution function F(x).
  virtual double cdf(double x) const = 0;

  /// Density f(x).
  virtual double pdf(double x) const = 0;

  /// Quantile F^{-1}(p), p in (0, 1).
  virtual double quantile(double p) const = 0;

  /// Mean; may be +inf for heavy-tailed members.
  virtual double mean() const = 0;

  /// Variance; may be +inf.
  virtual double variance() const = 0;

  /// Survival S(x) = 1 - F(x). Overridable for tail accuracy.
  virtual double survival(double x) const { return 1.0 - cdf(x); }

  /// Hazard rate h(x) = f(x) / S(x); +inf where S(x) == 0.
  virtual double hazard(double x) const {
    const double s = survival(x);
    if (s <= 0.0) return std::numeric_limits<double>::infinity();
    return pdf(x) / s;
  }

  /// Deep copy (distributions are cheap small values).
  virtual std::unique_ptr<Distribution> clone() const = 0;
};

using DistributionPtr = std::unique_ptr<Distribution>;

}  // namespace prm::stats
