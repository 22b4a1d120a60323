// ResilienceModel: the interface every predictive resilience model in prm
// implements (paper Section II). A model is a parametric performance curve
// P(t; theta) fitted to the observed portion of a resilience event by least
// squares and then used to predict performance, recovery time, and
// interval-based metrics over the unobserved horizon.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/time_series.hpp"
#include "numerics/matrix.hpp"
#include "optimize/transforms.hpp"

namespace prm::opt {
struct MultistartOptions;
}

namespace prm::core {

/// What fit_model() minimizes, as far as a model's start policy needs to
/// know (see ResilienceModel::tune_multistart).
struct FitObjective {
  /// The plain unweighted sum of squared errors of Eq. 8: squared loss and
  /// no per-sample weights.
  bool plain_sse = true;
  /// The loss is convex in the residual: squared or Huber, not Cauchy.
  bool convex_loss = true;
};

class ResilienceModel {
 public:
  virtual ~ResilienceModel() = default;

  /// Short unique name, e.g. "quadratic", "competing-risks", "mix-wei-exp-log".
  virtual std::string name() const = 0;

  /// Human-readable description for reports.
  virtual std::string description() const = 0;

  virtual std::size_t num_parameters() const = 0;
  virtual std::vector<std::string> parameter_names() const = 0;

  /// Domain constraints per parameter, enforced by the fitting layer through
  /// smooth transforms so evaluate() never sees invalid parameters.
  virtual std::vector<opt::Bound> parameter_bounds() const = 0;

  /// Performance P(t; params) at time t >= 0 measured from the hazard.
  virtual double evaluate(double t, const num::Vector& params) const = 0;

  /// dP/dparams at (t, params). Default: central finite differences.
  virtual num::Vector gradient(double t, const num::Vector& params) const;

  /// Whole-series evaluation: out[i] = P(t[i]; params). This is the fit hot
  /// path — the bathtub and mixture models override it with SIMD batch
  /// kernels (4 samples per instruction stream, vectorized exp/log). The
  /// default loops evaluate(). Requires out.size() == t.size().
  virtual void eval_batch(std::span<const double> t, const num::Vector& params,
                          std::span<double> out) const;

  /// Whole-series gradient: resizes *out to t.size() x num_parameters() and
  /// fills row i with dP/dparams at t[i]. Overridden alongside eval_batch
  /// with analytic SIMD kernels; the default loops gradient().
  virtual void gradient_batch(std::span<const double> t, const num::Vector& params,
                              num::Matrix* out) const;

  /// Data-driven starting points for the optimizer, best first. Must return
  /// at least one point, each satisfying parameter_bounds().
  virtual std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& fit_window) const = 0;

  /// Per-parameter search box (lo, hi) for multistart sampling, in external
  /// (bounded) space. Boxes must lie strictly inside the bounds.
  virtual std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries& fit_window) const = 0;

  /// Closed-form area under P between t0 and t1, when the model has one
  /// (paper Eqs. 3 and 6). nullopt -> caller integrates numerically.
  virtual std::optional<double> area_closed_form(const num::Vector& params, double t0,
                                                 double t1) const;

  /// Closed-form first time t > after at which P(t) == level (paper Eqs. 2
  /// and 5). nullopt -> caller solves numerically.
  virtual std::optional<double> recovery_time_closed_form(const num::Vector& params,
                                                          double level,
                                                          double after) const;

  /// Closed-form trough location argmin_t P(t), when available.
  virtual std::optional<double> trough_closed_form(const num::Vector& params) const;

  /// Hook for models whose initial_guesses() embed their own exploration
  /// (e.g. the nn family's Adam multistart) or suffice for the objective
  /// being minimized (the quadratic's guess is its exact sign-constrained
  /// least-squares fit; competing-risks' is its variable-projection optimum;
  /// the Exp-Exp mixture's are the best two minima of its variable-
  /// projection profile): fit_model() passes its solver options and the
  /// objective through this before running, so such a model can cap the
  /// generic sampled/jittered start budget and the polish of the multistart
  /// winner, and tighten the LM tolerances. A model whose guesses start LM
  /// in the optimum's basin may also clear `warm_start`, so that a refit
  /// runs the exact starts instead of the previous solution. Default: leave
  /// the options unchanged. Models must not set the warm-start or touch the
  /// threading fields.
  virtual void tune_multistart(opt::MultistartOptions& options,
                               const FitObjective& objective) const;

  virtual std::unique_ptr<ResilienceModel> clone() const = 0;
};

using ModelPtr = std::unique_ptr<ResilienceModel>;

/// Factory registry so benches/examples can instantiate models by name.
/// Registration is done by the library for all built-in models; user models
/// can be added at runtime.
class ModelRegistry {
 public:
  using Factory = std::function<ModelPtr()>;

  /// The process-wide registry, pre-populated with built-in models.
  static ModelRegistry& instance();

  /// Register (or replace) a factory under `name`.
  void register_model(const std::string& name, Factory factory);

  /// Instantiate; throws std::out_of_range for unknown names.
  ModelPtr create(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// Coarse family tag for a model name: "bathtub", "mixture", "segmented",
/// "neural", or "custom" for anything the built-in taxonomy does not cover.
std::string model_family(const std::string& name);

}  // namespace prm::core
