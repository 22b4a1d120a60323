#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/bathtub.hpp"
#include "core/mixture.hpp"
#include "core/segmented.hpp"
#include "nn/neural_model.hpp"

namespace prm::core {

num::Vector ResilienceModel::gradient(double t, const num::Vector& params) const {
  num::Vector g(params.size());
  num::Vector p = params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double h =
        std::cbrt(std::numeric_limits<double>::epsilon()) * std::max(1.0, std::fabs(p[i]));
    const double orig = p[i];
    p[i] = orig + h;
    const double fp = evaluate(t, p);
    p[i] = orig - h;
    const double fm = evaluate(t, p);
    p[i] = orig;
    g[i] = (fp - fm) / (2.0 * h);
  }
  return g;
}

void ResilienceModel::eval_batch(std::span<const double> t, const num::Vector& params,
                                 std::span<double> out) const {
  if (out.size() != t.size()) {
    throw std::invalid_argument("eval_batch: out size must match t size");
  }
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = evaluate(t[i], params);
}

void ResilienceModel::gradient_batch(std::span<const double> t, const num::Vector& params,
                                     num::Matrix* out) const {
  out->resize(t.size(), params.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const num::Vector g = gradient(t[i], params);
    for (std::size_t c = 0; c < g.size(); ++c) (*out)(i, c) = g[c];
  }
}

std::optional<double> ResilienceModel::area_closed_form(const num::Vector&, double,
                                                        double) const {
  return std::nullopt;
}

std::optional<double> ResilienceModel::recovery_time_closed_form(const num::Vector&, double,
                                                                 double) const {
  return std::nullopt;
}

std::optional<double> ResilienceModel::trough_closed_form(const num::Vector&) const {
  return std::nullopt;
}

void ResilienceModel::tune_multistart(opt::MultistartOptions&, const FitObjective&) const {}

ModelRegistry& ModelRegistry::instance() {
  static ModelRegistry registry = [] {
    ModelRegistry r;
    r.register_model("quadratic", [] { return ModelPtr(new QuadraticBathtubModel()); });
    r.register_model("competing-risks", [] { return ModelPtr(new CompetingRisksModel()); });
    r.register_model("segmented-quadratic",
                     [] { return ModelPtr(new SegmentedQuadraticModel()); });
    // The four mixture families the paper evaluates (Table III), with the
    // beta*ln(t) recovery trend the paper reports results for.
    const auto add_mix = [&r](Family f1, Family f2) {
      MixtureSpec spec{f1, f2, RecoveryTrend::kLogarithmic};
      r.register_model(MixtureModel(spec).name(),
                       [spec] { return ModelPtr(new MixtureModel(spec)); });
    };
    add_mix(Family::kExponential, Family::kExponential);
    add_mix(Family::kWeibull, Family::kExponential);
    add_mix(Family::kExponential, Family::kWeibull);
    add_mix(Family::kWeibull, Family::kWeibull);
    // The neural family (the paper's sequel direction): the architecture is
    // fully encoded in the name, so any "nn-<widths>-<act>" spec can also be
    // registered by users at runtime.
    const auto add_nn = [&r](const char* name) {
      const auto spec = nn::MlpSpec::from_name(name);
      r.register_model(name, [spec] { return ModelPtr(new nn::NeuralModel(*spec)); });
    };
    add_nn("nn-6-tanh");
    add_nn("nn-6-softplus");
    add_nn("nn-4x4-tanh");
    return r;
  }();
  return registry;
}

void ModelRegistry::register_model(const std::string& name, Factory factory) {
  if (!factory) throw std::invalid_argument("ModelRegistry: null factory");
  for (auto& [n, f] : factories_) {
    if (n == name) {
      f = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

ModelPtr ModelRegistry::create(const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return f();
  }
  throw std::out_of_range("ModelRegistry: unknown model: " + name);
}

bool ModelRegistry::contains(const std::string& name) const {
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& p) { return p.first == name; });
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

std::string model_family(const std::string& name) {
  if (name.rfind("mix-", 0) == 0) return "mixture";
  if (name.rfind("nn-", 0) == 0) return "neural";
  if (name.rfind("segmented", 0) == 0) return "segmented";
  if (name == "quadratic" || name == "competing-risks") return "bathtub";
  return "custom";
}

}  // namespace prm::core
