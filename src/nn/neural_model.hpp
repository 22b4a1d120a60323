// NeuralModel: the prm::nn MLP wrapped as a core::ResilienceModel.
//
// The paper's sequel ("Predicting Resilience with Neural Networks", da Mata,
// Silva, Fiondella) replaces the parametric curve zoo with trained networks.
// Here the network IS a registry model: its flattened weight buffer is the
// parameter vector, so multistart fitting, rolling-origin PMSE, bootstrap
// uncertainty, live warm-start refits, serve-time fitting, and text
// serialization (save_fit / Monitor::save / WAL replay, all %.17g) apply
// unchanged — a weight is just a parameter named "w1-0-0".
//
// Fit recipe: initial_guesses() runs a deterministic Adam multistart on the
// fit window (nn/train.hpp) and returns the trained weights (plus the cold
// init), so the LM/Nelder-Mead pipeline acts as a polish step rather than a
// from-random trainer; tune_multistart() caps the LHS exploration the
// parametric models need but random weight space does not reward.
//
// The model input is the feature x = log1p(t), computed through the pack
// math layer so evaluate() (generic pack, lane 0) and eval_batch() (native
// pack, 4 samples per stream) are bit-identical per the repo's parity
// contract.
#pragma once

#include <string_view>

#include "core/model.hpp"
#include "nn/train.hpp"

namespace prm::nn {

/// The net's input feature x = log1p(t), via the pack math layer (bit-exact
/// with the batch kernels).
double input_feature(double t);

class NeuralModel final : public core::ResilienceModel {
 public:
  explicit NeuralModel(MlpSpec spec, TrainOptions train = {});

  /// Construct from a registry-style name ("nn-6-tanh", "nn-4x4-relu");
  /// nullptr when the name does not parse.
  static std::unique_ptr<NeuralModel> from_name(std::string_view name);

  const MlpSpec& spec() const noexcept { return spec_; }
  TrainOptions& train_options() noexcept { return train_; }
  const TrainOptions& train_options() const noexcept { return train_; }

  std::string name() const override;
  std::string description() const override;
  std::size_t num_parameters() const override;
  std::vector<std::string> parameter_names() const override;
  std::vector<opt::Bound> parameter_bounds() const override;

  double evaluate(double t, const num::Vector& params) const override;

  /// Analytic backpropagation gradient (dP/dweights).
  num::Vector gradient(double t, const num::Vector& params) const override;

  /// SIMD batch kernels: 4 samples per instruction stream, dispatching to
  /// the native pack or the bit-identical generic reference per
  /// num::batch_simd_enabled().
  void eval_batch(std::span<const double> t, const num::Vector& params,
                  std::span<double> out) const override;
  void gradient_batch(std::span<const double> t, const num::Vector& params,
                      num::Matrix* out) const override;

  std::vector<num::Vector> initial_guesses(
      const data::PerformanceSeries& fit_window) const override;
  std::pair<num::Vector, num::Vector> search_box(
      const data::PerformanceSeries& fit_window) const override;

  void tune_multistart(opt::MultistartOptions& options,
                       const core::FitObjective& objective) const override;

  std::unique_ptr<ResilienceModel> clone() const override {
    return std::make_unique<NeuralModel>(*this);
  }

 private:
  MlpSpec spec_;
  TrainOptions train_;
};

}  // namespace prm::nn
