// Normal distribution. Used for the confidence-interval machinery (critical
// values z_{1-alpha/2}, Eq. 13).
#pragma once

#include "stats/distribution.hpp"

namespace prm::stats {

class Normal final : public Distribution {
 public:
  /// sigma > 0. Throws std::invalid_argument otherwise.
  Normal(double mu, double sigma);

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

  std::string name() const override { return "Normal"; }
  std::size_t num_parameters() const override { return 2; }
  double cdf(double x) const override;
  double pdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override { return mu_; }
  double variance() const override { return sigma_ * sigma_; }
  DistributionPtr clone() const override { return std::make_unique<Normal>(*this); }

 private:
  double mu_;
  double sigma_;
};

/// Critical value z_{1 - alpha/2} of the standard normal (paper Eq. 13).
/// alpha in (0, 1); alpha = 0.05 gives ~1.96.
double normal_critical_value(double alpha);

}  // namespace prm::stats
