#include "data/generator.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace prm::data {
namespace {

TEST(Generator, DeterministicForSameSpec) {
  ScenarioSpec spec;
  spec.seed = 123;
  const PerformanceSeries a = generate_scenario(spec);
  const PerformanceSeries b = generate_scenario(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.value(i), b.value(i));
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  ScenarioSpec a;
  a.seed = 1;
  ScenarioSpec b;
  b.seed = 2;
  const auto sa = generate_scenario(a);
  const auto sb = generate_scenario(b);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa.value(i) != sb.value(i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, StartsAtExactlyNominal) {
  for (auto shape : {RecessionShape::kV, RecessionShape::kU, RecessionShape::kW,
                     RecessionShape::kL, RecessionShape::kJ, RecessionShape::kK}) {
    EXPECT_DOUBLE_EQ(generate_shape(shape).value(0), 1.0);
  }
}

TEST(Generator, RespectsLength) {
  ScenarioSpec spec;
  spec.length = 31;
  EXPECT_EQ(generate_scenario(spec).size(), 31u);
}

TEST(Generator, DepthApproximatelyRealized) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kV;
  spec.depth = 0.05;
  spec.noise = 0.0;
  const auto s = generate_scenario(spec);
  EXPECT_NEAR(s.trough_value(), 0.95, 0.005);
}

TEST(Generator, TroughPositionApproximatelyRealized) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kV;
  spec.trough_at = 0.25;
  spec.noise = 0.0;
  spec.length = 41;
  const auto s = generate_scenario(spec);
  EXPECT_NEAR(static_cast<double>(s.trough_index()) / 40.0, 0.25, 0.05);
}

TEST(Generator, VShapeRecoversAboveNominal) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kV;
  spec.recovery_gain = 0.05;
  spec.noise = 0.0;
  const auto s = generate_scenario(spec);
  EXPECT_NEAR(s.values().back(), 1.05, 0.01);
}

TEST(Generator, LShapeStaysDepressed) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kL;
  spec.depth = 0.15;
  spec.noise = 0.0;
  const auto s = generate_scenario(spec);
  EXPECT_LT(s.values().back(), 1.0);          // never fully recovers
  EXPECT_LE(s.trough_index(), s.size() / 8);  // crash is early
}

TEST(Generator, WShapeHasSecondDip) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kW;
  spec.depth = 0.02;
  spec.second_dip_depth = 0.03;
  spec.second_dip_at = 0.6;
  spec.noise = 0.0;
  spec.length = 101;
  const auto s = generate_scenario(spec);
  // Global trough should be the second, deeper dip.
  EXPECT_GT(static_cast<double>(s.trough_index()) / 100.0, 0.4);
  EXPECT_NEAR(s.trough_value(), 0.97, 0.005);
}

TEST(Generator, JShapeRecoveryAccelerates) {
  ScenarioSpec spec;
  spec.shape = RecessionShape::kJ;
  spec.noise = 0.0;
  spec.length = 101;
  const auto s = generate_scenario(spec);
  const std::size_t td = s.trough_index();
  const std::size_t mid = td + (100 - td) / 2;
  const double first_half = s.value(mid) - s.value(td);
  const double second_half = s.value(100) - s.value(mid);
  EXPECT_GT(second_half, first_half);
}

TEST(Generator, InvalidSpecsThrow) {
  ScenarioSpec spec;
  spec.length = 2;
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
  spec = {};
  spec.trough_at = 0.0;
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
  spec = {};
  spec.depth = 1.5;
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
  spec = {};
  spec.shape = RecessionShape::kW;
  spec.second_dip_at = spec.trough_at / 2.0;  // before the first dip
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
}

TEST(Generator, ZeroNoiseGivesTheNoiseFreeCurve) {
  // With no noise the seed draws nothing, so every seed yields one curve.
  ScenarioSpec a;
  a.noise = 0.0;
  a.seed = 1;
  ScenarioSpec b = a;
  b.seed = 99;
  const auto sa = generate_scenario(a);
  const auto sb = generate_scenario(b);
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_EQ(sa.value(0), 1.0);
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa.value(i), sb.value(i));
}

TEST(Generator, NegativeOrNanNoiseThrows) {
  ScenarioSpec spec;
  spec.noise = -0.001;
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
  spec.noise = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(generate_scenario(spec), std::invalid_argument);
}

TEST(Generator, NoiseMagnitudeIsBounded) {
  ScenarioSpec quiet;
  quiet.noise = 0.0;
  ScenarioSpec noisy = quiet;
  noisy.noise = 0.001;
  const auto sq = generate_scenario(quiet);
  const auto sn = generate_scenario(noisy);
  for (std::size_t i = 0; i < sq.size(); ++i) {
    EXPECT_NEAR(sn.value(i), sq.value(i), 0.01);  // ~10 sigma
  }
}

}  // namespace
}  // namespace prm::data
