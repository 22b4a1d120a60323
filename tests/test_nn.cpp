// prm::nn unit tests: MlpSpec naming/geometry, activation kernels against
// scalar references, forward/backward correctness versus hand computation
// and central differences, Adam progress, the deterministic init contract,
// and NeuralModel's ResilienceModel surface (scalar/batch bit parity across
// the generic and native SIMD paths).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/model.hpp"
#include "data/recessions.hpp"
#include "nn/activation.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "nn/neural_model.hpp"
#include "nn/train.hpp"
#include "numerics/simd.hpp"
#include "optimize/multistart.hpp"

namespace {

using namespace prm;
using nn::Activation;
using nn::MlpSpec;

MlpSpec spec_6_tanh() { return MlpSpec{{6}, Activation::kTanh}; }

/// Small deterministic weight vector with non-trivial values.
num::Vector test_weights(const MlpSpec& spec, std::uint64_t seed = 42) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-0.9, 0.9);
  num::Vector w(spec.num_weights());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = dist(rng);
  return w;
}

// ---------------------------------------------------------------------------
// MlpSpec: names and geometry.

TEST(NnSpec, NameRoundTrip) {
  for (const char* name : {"nn-6-tanh", "nn-6-softplus", "nn-4x4-tanh",
                           "nn-16-relu", "nn-8x4x2-softplus"}) {
    const auto spec = MlpSpec::from_name(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->to_name(), name);
  }
}

TEST(NnSpec, RejectsMalformedNames) {
  for (const char* name :
       {"", "nn-", "nn-6", "nn-6-", "nn--tanh", "nn-6-sigmoid", "quadratic",
        "nn-0-tanh", "nn-17-tanh", "nn-4x4x4x4-tanh", "nn-123-tanh",
        "nn-6x-tanh", "nn-x6-tanh"}) {
    EXPECT_FALSE(MlpSpec::from_name(name).has_value()) << name;
  }
}

TEST(NnSpec, WeightCounts) {
  // 1-6-1 tanh: (1*6 + 6) hidden + (6 + 1) output = 19.
  EXPECT_EQ(MlpSpec::from_name("nn-6-tanh")->num_weights(), 19u);
  // 1-4-4-1: (4 + 4) + (16 + 4) + (4 + 1) = 33.
  EXPECT_EQ(MlpSpec::from_name("nn-4x4-tanh")->num_weights(), 33u);
}

TEST(NnSpec, WeightNamesMatchCountAndAreUnique) {
  const MlpSpec spec = *MlpSpec::from_name("nn-4x4-tanh");
  const std::vector<std::string> names = nn::weight_names(spec);
  ASSERT_EQ(names.size(), spec.num_weights());
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(NnSpec, ValidateRejectsOutOfRangeArchitectures) {
  EXPECT_THROW((MlpSpec{{}, Activation::kTanh}).validate(), std::invalid_argument);
  EXPECT_THROW((MlpSpec{{0}, Activation::kTanh}).validate(), std::invalid_argument);
  EXPECT_THROW((MlpSpec{{17}, Activation::kTanh}).validate(), std::invalid_argument);
  EXPECT_THROW((MlpSpec{{4, 4, 4, 4}, Activation::kTanh}).validate(),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Activations: kernel output versus the libm scalar references.

TEST(NnActivation, MatchesScalarReferences) {
  using G = num::f64x4_generic;
  for (double x : {-20.0, -3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0, 20.0}) {
    const G in = G::broadcast(x);
    EXPECT_NEAR(nn::activation_apply(Activation::kTanh, in).lane(0), std::tanh(x),
                1e-14)
        << x;
    EXPECT_EQ(nn::activation_apply(Activation::kRelu, in).lane(0),
              std::max(x, 0.0))
        << x;
    EXPECT_NEAR(nn::activation_apply(Activation::kSoftplus, in).lane(0),
                std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0), 1e-14)
        << x;
  }
}

TEST(NnActivation, DerivativeMatchesFiniteDifference) {
  using G = num::f64x4_generic;
  const double h = 1e-6;
  for (const Activation act :
       {Activation::kTanh, Activation::kRelu, Activation::kSoftplus}) {
    for (double x : {-2.0, -0.5, 0.4, 1.5, 3.0}) {
      const double a = nn::activation_apply(act, G::broadcast(x)).lane(0);
      const double got = nn::activation_derivative(act, G::broadcast(a)).lane(0);
      const double fp = nn::activation_apply(act, G::broadcast(x + h)).lane(0);
      const double fm = nn::activation_apply(act, G::broadcast(x - h)).lane(0);
      EXPECT_NEAR(got, (fp - fm) / (2.0 * h), 1e-6)
          << "act=" << nn::to_string(act) << " x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Forward pass.

TEST(NnForward, MatchesHandComputationOnSingleHiddenUnit) {
  // 1-1-1 tanh net: y = b2 + w2 * tanh(b1 + w1 * x).
  const MlpSpec spec{{1}, Activation::kTanh};
  ASSERT_EQ(spec.num_weights(), 4u);
  const double w1 = 0.7, b1 = -0.2, w2 = 1.3, b2 = 0.05;
  const double w[4] = {w1, b1, w2, b2};
  for (double x : {-1.5, 0.0, 0.8, 2.5}) {
    const double got =
        nn::forward(spec, w, num::f64x4_generic::broadcast(x)).lane(0);
    EXPECT_NEAR(got, b2 + w2 * std::tanh(b1 + w1 * x), 1e-14) << x;
  }
}

TEST(NnForward, PackLanesAreIndependent) {
  const MlpSpec spec = spec_6_tanh();
  const num::Vector w = test_weights(spec);
  const double xs[4] = {-1.0, 0.0, 0.5, 2.0};
  double ys[4];
  nn::forward(spec, w.data(), num::f64x4_generic::load(xs)).store(ys);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const double solo =
        nn::forward(spec, w.data(), num::f64x4_generic::broadcast(xs[lane]))
            .lane(0);
    EXPECT_EQ(ys[lane], solo) << "lane " << lane;
  }
}

TEST(NnForward, NativePackMatchesGenericBitwise) {
  // The bit-parity contract: the best available native pack must produce
  // exactly the generic reference's bits, lane by lane.
  const double xs[4] = {-2.5, -0.1, 0.7, 3.3};
  for (const char* name : {"nn-6-tanh", "nn-6-softplus", "nn-4x4-relu"}) {
    const MlpSpec spec = *MlpSpec::from_name(name);
    const num::Vector w = test_weights(spec);
    double want[4], got[4];
    nn::forward(spec, w.data(), num::f64x4_generic::load(xs)).store(want);
    nn::forward(spec, w.data(), num::f64x4::load(xs)).store(got);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(got[lane], want[lane]) << name << " lane " << lane;
    }
  }
}

// ---------------------------------------------------------------------------
// Backward pass.

TEST(NnBackward, GradientMatchesCentralDifferences) {
  for (const char* name : {"nn-6-tanh", "nn-6-softplus", "nn-4x4-tanh"}) {
    const MlpSpec spec = *MlpSpec::from_name(name);
    num::Vector w = test_weights(spec);
    const double x = 0.9;
    using G = num::f64x4_generic;
    G acts[nn::kMaxActivations];
    (void)nn::forward_store(spec, w.data(), G::broadcast(x), acts);
    G gw[nn::kMaxWeights];
    nn::backward(spec, w.data(), acts, G::broadcast(1.0), gw);

    const double h = 1e-6;
    for (std::size_t i = 0; i < spec.num_weights(); ++i) {
      const double saved = w[i];
      w[i] = saved + h;
      const double fp = nn::forward(spec, w.data(), G::broadcast(x)).lane(0);
      w[i] = saved - h;
      const double fm = nn::forward(spec, w.data(), G::broadcast(x)).lane(0);
      w[i] = saved;
      EXPECT_NEAR(gw[i].lane(0), (fp - fm) / (2.0 * h), 1e-6)
          << name << " weight " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Adam.

TEST(NnAdam, ReducesLossOnASmoothTarget) {
  const MlpSpec spec = spec_6_tanh();
  std::vector<double> x, y;
  for (int i = 0; i <= 40; ++i) {
    const double t = 0.1 * i;
    x.push_back(t);
    y.push_back(1.0 - 0.3 * std::exp(-t) * std::sin(2.0 * t));
  }
  num::Vector w = nn::init_weights(spec, 7);
  const double before = nn::mse_loss(spec, x, y, w);
  nn::AdamOptions adam;
  adam.epochs = 300;
  const double after = nn::adam_train(spec, x, y, w, adam);
  EXPECT_LT(after, before * 0.25);
  EXPECT_NEAR(after, nn::mse_loss(spec, x, y, w), 1e-15);
}

TEST(NnAdam, MiniBatchAlsoConverges) {
  const MlpSpec spec = spec_6_tanh();
  std::vector<double> x, y;
  for (int i = 0; i <= 40; ++i) {
    const double t = 0.1 * i;
    x.push_back(t);
    y.push_back(0.9 + 0.1 * std::tanh(t - 2.0));
  }
  num::Vector w = nn::init_weights(spec, 11);
  const double before = nn::mse_loss(spec, x, y, w);
  nn::AdamOptions adam;
  adam.epochs = 300;
  adam.batch_size = 8;
  adam.shuffle_seed = 123;
  const double after = nn::adam_train(spec, x, y, w, adam);
  EXPECT_LT(after, before * 0.5);
}

// ---------------------------------------------------------------------------
// Deterministic init + training.

TEST(NnInit, SeedFullyDeterminesWeights) {
  const MlpSpec spec = *MlpSpec::from_name("nn-4x4-tanh");
  const num::Vector a = nn::init_weights(spec, 99);
  const num::Vector b = nn::init_weights(spec, 99);
  const num::Vector c = nn::init_weights(spec, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::isfinite(a[i]));
    EXPECT_LT(std::abs(a[i]), 3.0);  // Glorot radius for these fan sizes
  }
}

TEST(NnTrain, PicksTheBestRestartDeterministically) {
  const MlpSpec spec = spec_6_tanh();
  std::vector<double> x, y;
  for (int i = 0; i <= 30; ++i) {
    x.push_back(0.1 * i);
    y.push_back(1.0 - 0.2 * std::exp(-0.1 * i));
  }
  nn::TrainOptions options;
  options.restarts = 3;
  options.adam.epochs = 150;
  const nn::TrainResult a = nn::train_multistart(spec, x, y, options);
  const nn::TrainResult b = nn::train_multistart(spec, x, y, options);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.best_restart, b.best_restart);
  EXPECT_EQ(a.restarts, 3);
  // The winner's loss is <= every single-restart retraining.
  for (int r = 0; r < 3; ++r) {
    nn::TrainOptions solo = options;
    solo.restarts = 1;
    solo.seed = options.seed ^ static_cast<std::uint64_t>(r);
    const nn::TrainResult run = nn::train_multistart(spec, x, y, solo);
    EXPECT_LE(a.loss, run.loss) << "restart " << r;
  }
}

// ---------------------------------------------------------------------------
// NeuralModel: the ResilienceModel surface.

TEST(NnModel, RegistryExposesNeuralFamilies) {
  auto& registry = core::ModelRegistry::instance();
  for (const char* name : {"nn-6-tanh", "nn-6-softplus", "nn-4x4-tanh"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const core::ModelPtr model = registry.create(name);
    EXPECT_EQ(model->name(), name);
    EXPECT_EQ(core::model_family(name), "neural");
    EXPECT_EQ(model->parameter_names().size(), model->num_parameters());
  }
  EXPECT_EQ(nn::NeuralModel::from_name("nn-6-sigmoid"), nullptr);
}

TEST(NnModel, EvaluateMatchesEvalBatchBitwise) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("nn-6-tanh");
  const num::Vector w =
      test_weights(*MlpSpec::from_name("nn-6-tanh"), 5);
  const std::vector<double> ts = {0.0, 0.5, 1.0, 2.0, 5.0, 9.0, 17.0};
  std::vector<double> batch(ts.size());
  for (const bool simd : {false, true}) {
    num::set_batch_simd_enabled(simd);
    model->eval_batch(ts, w, batch);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(batch[i], model->evaluate(ts[i], w)) << "simd=" << simd << " i=" << i;
    }
  }
  num::set_batch_simd_enabled(true);
}

TEST(NnModel, GradientBatchMatchesScalarGradientBitwise) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("nn-4x4-tanh");
  const num::Vector w = test_weights(*MlpSpec::from_name("nn-4x4-tanh"), 3);
  const std::vector<double> ts = {0.0, 0.75, 3.0, 6.0, 12.0};
  num::Matrix jac;
  for (const bool simd : {false, true}) {
    num::set_batch_simd_enabled(simd);
    model->gradient_batch(ts, w, &jac);
    ASSERT_EQ(jac.rows(), ts.size());
    ASSERT_EQ(jac.cols(), w.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const num::Vector g = model->gradient(ts[i], w);
      for (std::size_t j = 0; j < w.size(); ++j) {
        EXPECT_EQ(jac(i, j), g[j]) << "simd=" << simd << " i=" << i << " j=" << j;
      }
    }
  }
  num::set_batch_simd_enabled(true);
}

TEST(NnModel, InitialGuessesTrainOnTheFitWindow) {
  const auto& ds = data::recession("1990-93");
  nn::NeuralModel model(*MlpSpec::from_name("nn-6-tanh"));
  const auto guesses = model.initial_guesses(ds.series.head(ds.series.size() - 2));
  ASSERT_EQ(guesses.size(), 2u);
  EXPECT_EQ(guesses[0].size(), model.num_parameters());
  // The trained start must beat the cold init on the fit window.
  const auto window = ds.series.head(ds.series.size() - 2);
  auto sse = [&](const num::Vector& p) {
    double out = 0.0;
    for (std::size_t i = 0; i < window.size(); ++i) {
      const double r = model.evaluate(window.time(i), p) - window.value(i);
      out += r * r;
    }
    return out;
  };
  EXPECT_LT(sse(guesses[0]), sse(guesses[1]));
}

TEST(NnModel, TuneMultistartCapsExploration) {
  const core::ModelPtr model = core::ModelRegistry::instance().create("nn-6-tanh");
  opt::MultistartOptions options;
  options.sampled_starts = 40;
  options.jitter_per_start = 8;
  model->tune_multistart(options, core::FitObjective{});
  EXPECT_LE(options.sampled_starts, 2);
  EXPECT_LE(options.jitter_per_start, 1);
}

TEST(NnModel, CloneIsIndependentAndEquivalent) {
  nn::NeuralModel model(*MlpSpec::from_name("nn-6-softplus"));
  const auto copy = model.clone();
  EXPECT_EQ(copy->name(), model.name());
  const num::Vector w = test_weights(*MlpSpec::from_name("nn-6-softplus"), 8);
  EXPECT_EQ(copy->evaluate(4.2, w), model.evaluate(4.2, w));
}

}  // namespace
