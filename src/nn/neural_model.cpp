#include "nn/neural_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "optimize/multistart.hpp"

namespace prm::nn {

namespace {

void check_params(const MlpSpec& spec, const num::Vector& params) {
  if (params.size() != spec.num_weights()) {
    throw std::invalid_argument("NeuralModel: parameter count does not match the spec");
  }
}

template <class P>
void eval_kernel(const MlpSpec& spec, std::span<const double> t, const double* w,
                 std::span<double> out) {
  const std::size_t n = t.size();
  for (std::size_t c = 0; c < n; c += 4) {
    double ts[4];
    for (std::size_t lane = 0; lane < 4; ++lane) {
      ts[lane] = t[std::min(c + lane, n - 1)];  // padded tail
    }
    const P x = num::simd_log1p(P::load(ts));
    double ys[4];
    forward(spec, w, x).store(ys);
    for (std::size_t lane = 0; lane < 4 && c + lane < n; ++lane) out[c + lane] = ys[lane];
  }
}

template <class P>
void grad_kernel(const MlpSpec& spec, std::span<const double> t, const double* w,
                 num::Matrix* out) {
  const std::size_t n = t.size();
  const std::size_t nw = spec.num_weights();
  for (std::size_t c = 0; c < n; c += 4) {
    double ts[4];
    for (std::size_t lane = 0; lane < 4; ++lane) {
      ts[lane] = t[std::min(c + lane, n - 1)];
    }
    P acts[kMaxActivations];
    const P x = num::simd_log1p(P::load(ts));
    (void)forward_store(spec, w, x, acts);
    P gw[kMaxWeights];
    backward(spec, w, acts, P::broadcast(1.0), gw);
    for (std::size_t i = 0; i < nw; ++i) {
      double gs[4];
      gw[i].store(gs);
      for (std::size_t lane = 0; lane < 4 && c + lane < n; ++lane) {
        (*out)(c + lane, i) = gs[lane];
      }
    }
  }
}

}  // namespace

double input_feature(double t) {
  return num::simd_log1p(num::f64x4_generic::broadcast(t)).lane(0);
}

NeuralModel::NeuralModel(MlpSpec spec, TrainOptions train)
    : spec_(std::move(spec)), train_(train) {
  spec_.validate();
}

std::unique_ptr<NeuralModel> NeuralModel::from_name(std::string_view name) {
  const auto spec = MlpSpec::from_name(name);
  if (!spec) return nullptr;
  return std::make_unique<NeuralModel>(*spec);
}

std::string NeuralModel::name() const { return spec_.to_name(); }

std::string NeuralModel::description() const {
  std::string arch = "1";
  for (const std::size_t width : spec_.hidden) {
    arch += '-';
    arch += std::to_string(width);
  }
  arch += "-1";
  std::string out = "feed-forward MLP ";
  out += arch;
  out += " (";
  out += to_string(spec_.activation);
  out += "), Adam-multistart trained on x = log1p(t), LM-polished";
  return out;
}

std::size_t NeuralModel::num_parameters() const { return spec_.num_weights(); }

std::vector<std::string> NeuralModel::parameter_names() const {
  return weight_names(spec_);
}

std::vector<opt::Bound> NeuralModel::parameter_bounds() const {
  return std::vector<opt::Bound>(spec_.num_weights(), opt::Bound::free());
}

double NeuralModel::evaluate(double t, const num::Vector& params) const {
  check_params(spec_, params);
  const num::f64x4_generic x =
      num::simd_log1p(num::f64x4_generic::broadcast(t));
  return forward(spec_, params.data(), x).lane(0);
}

num::Vector NeuralModel::gradient(double t, const num::Vector& params) const {
  check_params(spec_, params);
  using G = num::f64x4_generic;
  G acts[kMaxActivations];
  const G x = num::simd_log1p(G::broadcast(t));
  (void)forward_store(spec_, params.data(), x, acts);
  G gw[kMaxWeights];
  backward(spec_, params.data(), acts, G::broadcast(1.0), gw);
  num::Vector out(spec_.num_weights());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = gw[i].lane(0);
  return out;
}

void NeuralModel::eval_batch(std::span<const double> t, const num::Vector& params,
                             std::span<double> out) const {
  check_params(spec_, params);
  if (out.size() != t.size()) {
    throw std::invalid_argument("NeuralModel::eval_batch: out size must match t size");
  }
  if (t.empty()) return;
  if (num::batch_simd_enabled()) {
    eval_kernel<num::f64x4>(spec_, t, params.data(), out);
  } else {
    eval_kernel<num::f64x4_generic>(spec_, t, params.data(), out);
  }
}

void NeuralModel::gradient_batch(std::span<const double> t, const num::Vector& params,
                                 num::Matrix* out) const {
  check_params(spec_, params);
  out->resize(t.size(), spec_.num_weights());
  if (t.empty()) return;
  if (num::batch_simd_enabled()) {
    grad_kernel<num::f64x4>(spec_, t, params.data(), out);
  } else {
    grad_kernel<num::f64x4_generic>(spec_, t, params.data(), out);
  }
}

std::vector<num::Vector> NeuralModel::initial_guesses(
    const data::PerformanceSeries& fit_window) const {
  const std::span<const double> times = fit_window.times();
  std::vector<double> x(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) x[i] = input_feature(times[i]);
  const TrainResult trained =
      train_multistart(spec_, x, fit_window.values(), train_);
  // The trained net first; the cold init second, as a cheap safety start.
  return {trained.weights, init_weights(spec_, train_.seed)};
}

std::pair<num::Vector, num::Vector> NeuralModel::search_box(
    const data::PerformanceSeries&) const {
  return {num::Vector(spec_.num_weights(), -3.0), num::Vector(spec_.num_weights(), 3.0)};
}

void NeuralModel::tune_multistart(opt::MultistartOptions& options,
                                  const core::FitObjective&) const {
  // initial_guesses() already explored (Adam restarts); Latin-hypercube
  // points in raw weight space are near-useless LM starts, so cap that
  // budget instead of burning it on every fit.
  options.sampled_starts = std::min(options.sampled_starts, 2);
  options.jitter_per_start = std::min(options.jitter_per_start, 1);
}

}  // namespace prm::nn
