#include "core/ensemble.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/roots.hpp"
#include "optimize/brent.hpp"
#include "stats/confidence.hpp"
#include "stats/goodness_of_fit.hpp"

namespace prm::core {

const char* to_string(EnsembleWeighting weighting) {
  switch (weighting) {
    case EnsembleWeighting::kAic: return "aic";
    case EnsembleWeighting::kBic: return "bic";
    case EnsembleWeighting::kInversePmse: return "inverse-pmse";
  }
  return "unknown";
}

std::vector<double> information_weights(const std::vector<double>& criteria) {
  std::vector<double> w(criteria.size(), 0.0);
  double best = std::numeric_limits<double>::infinity();
  for (double c : criteria) {
    if (std::isfinite(c)) best = std::min(best, c);
  }
  if (!std::isfinite(best)) return w;  // all failed
  double sum = 0.0;
  for (std::size_t i = 0; i < criteria.size(); ++i) {
    if (std::isfinite(criteria[i])) {
      w[i] = std::exp(-0.5 * (criteria[i] - best));
      sum += w[i];
    }
  }
  for (double& x : w) x /= sum;
  return w;
}

EnsembleFit::EnsembleFit(std::vector<EnsembleMember> members)
    : members_(std::move(members)) {
  if (members_.empty()) {
    throw std::invalid_argument("EnsembleFit: need at least one member");
  }
  double sum = 0.0;
  for (const EnsembleMember& m : members_) {
    if (!(m.weight >= 0.0) || !std::isfinite(m.weight)) {
      throw std::invalid_argument("EnsembleFit: weights must be finite and non-negative");
    }
    if (m.fit.series().size() != members_.front().fit.series().size() ||
        m.fit.holdout() != members_.front().fit.holdout()) {
      throw std::invalid_argument("EnsembleFit: members disagree on series/holdout");
    }
    sum += m.weight;
  }
  if (!(sum > 0.0)) {
    throw std::invalid_argument("EnsembleFit: all weights are zero");
  }
  for (EnsembleMember& m : members_) m.weight /= sum;
}

double EnsembleFit::evaluate(double t) const {
  double acc = 0.0;
  for (const EnsembleMember& m : members_) {
    if (m.weight > 0.0) acc += m.weight * m.fit.evaluate(t);
  }
  return acc;
}

std::vector<double> EnsembleFit::predictions() const {
  const auto times = series().times();
  std::vector<double> out(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) out[i] = evaluate(times[i]);
  return out;
}

ValidationReport EnsembleFit::validate(const ValidationOptions& options) const {
  ValidationReport report;
  const auto observed = series().values();
  const std::vector<double> predicted = predictions();
  const std::size_t n_fit = series().size() - holdout();

  const auto obs_fit = observed.subspan(0, n_fit);
  const auto pred_fit = std::span<const double>(predicted).subspan(0, n_fit);

  // Effective parameter count: the weighted average of member counts
  // (fractional, as usual for model averaging).
  double k_eff = 0.0;
  for (const EnsembleMember& m : members_) {
    k_eff += m.weight * static_cast<double>(m.fit.model().num_parameters());
  }
  const std::size_t k = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(k_eff)));

  report.sse = stats::sse(obs_fit, pred_fit);
  if (holdout() > 0) {
    const auto obs_tail = observed.subspan(n_fit);
    const auto pred_tail = std::span<const double>(predicted).subspan(n_fit);
    report.pmse = stats::pmse(obs_tail, pred_tail);
    report.theil_u = stats::theil_u(obs_tail, pred_tail, obs_fit.back());
  }
  report.r2_adj = stats::adjusted_r_squared(obs_fit, pred_fit, k);
  report.aic = stats::aic(obs_fit, pred_fit, k);
  report.bic = stats::bic(obs_fit, pred_fit, k);
  report.band = stats::level_confidence_band(obs_fit, pred_fit, predicted, options.alpha);
  report.ec = stats::empirical_coverage(observed, report.band);
  report.predictions = predicted;
  return report;
}

std::optional<double> EnsembleFit::recovery_time(double level, double after,
                                                 double horizon_factor) const {
  const double horizon = horizon_factor * std::max(series().times().back(), 1.0);
  const auto f = [this, level](double t) { return evaluate(t) - level; };
  return num::first_crossing(f, after, horizon, 1024);
}

double EnsembleFit::trough_time() const {
  const double horizon = std::max(series().times().back(), 1.0);
  const auto f = [this](double t) { return evaluate(t); };
  return opt::scan_then_brent(f, 0.0, horizon, 256).x;
}

EnsembleFit fit_ensemble(const std::vector<std::string>& model_names,
                         const data::PerformanceSeries& series, std::size_t holdout,
                         const EnsembleOptions& options) {
  if (model_names.empty()) {
    throw std::invalid_argument("fit_ensemble: need at least one model name");
  }
  std::vector<EnsembleMember> members;
  std::vector<double> criteria;
  for (const std::string& name : model_names) {
    EnsembleMember m;
    m.fit = fit_model(name, series, holdout, options.fit);
    m.validation = core::validate(m.fit, options.validation);
    double criterion = std::numeric_limits<double>::infinity();
    if (m.fit.success()) {
      switch (options.weighting) {
        case EnsembleWeighting::kAic:
          criterion = m.validation.aic;
          break;
        case EnsembleWeighting::kBic:
          criterion = m.validation.bic;
          break;
        case EnsembleWeighting::kInversePmse:
          criterion = m.validation.pmse;  // handled below
          break;
      }
    }
    criteria.push_back(criterion);
    members.push_back(std::move(m));
  }

  std::vector<double> weights;
  if (options.weighting == EnsembleWeighting::kInversePmse) {
    weights.assign(criteria.size(), 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < criteria.size(); ++i) {
      if (std::isfinite(criteria[i]) && criteria[i] > 0.0) {
        weights[i] = 1.0 / criteria[i];
        sum += weights[i];
      }
    }
    if (!(sum > 0.0)) throw std::runtime_error("fit_ensemble: every member failed");
    for (double& w : weights) w /= sum;
  } else {
    weights = information_weights(criteria);
    double sum = 0.0;
    for (double w : weights) sum += w;
    if (!(sum > 0.0)) throw std::runtime_error("fit_ensemble: every member failed");
  }
  for (std::size_t i = 0; i < members.size(); ++i) members[i].weight = weights[i];
  return EnsembleFit(std::move(members));
}

}  // namespace prm::core
