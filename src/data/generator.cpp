#include "data/generator.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace prm::data {

namespace {

// Smoothstep easing on [0, 1].
double ease(double x) {
  x = std::clamp(x, 0.0, 1.0);
  return x * x * (3.0 - 2.0 * x);
}

// Base deterministic curve value at normalized position u in [0, 1].
double base_curve(const ScenarioSpec& spec, double u) {
  const double d = spec.depth;
  const double td = spec.trough_at;
  switch (spec.shape) {
    case RecessionShape::kV: {
      // Sharp symmetric drop and recovery, then growth to recovery_gain.
      if (u < td) return 1.0 - d * ease(u / td);
      const double rec = ease((u - td) / (1.0 - td));
      return (1.0 - d) + (d + spec.recovery_gain) * rec;
    }
    case RecessionShape::kU: {
      // Slow decline, flat bottom, slow recovery.
      const double flat = 0.25;  // fraction of length spent near the bottom
      const double t1 = td;
      const double t2 = std::min(td + flat, 0.95);
      if (u < t1) return 1.0 - d * ease(u / t1);
      if (u < t2) {
        // gentle basin: cosine bump keeps the bottom smooth
        const double w = (u - t1) / (t2 - t1);
        return (1.0 - d) + 0.08 * d * (1.0 - std::cos(2.0 * M_PI * w)) * 0.5;
      }
      const double rec = ease((u - t2) / (1.0 - t2));
      return (1.0 - d) + (d + spec.recovery_gain) * rec;
    }
    case RecessionShape::kW: {
      // Two dips: main at td, second at second_dip_at.
      const double t1 = td;
      const double tm = 0.5 * (td + spec.second_dip_at);  // interim partial recovery
      const double t2 = spec.second_dip_at;
      const double d2 = spec.second_dip_depth;
      const double interim = 1.0 - 0.15 * d;  // partial recovery level
      if (u < t1) return 1.0 - d * ease(u / t1);
      if (u < tm) return (1.0 - d) + (interim - (1.0 - d)) * ease((u - t1) / (tm - t1));
      if (u < t2) return interim - (interim - (1.0 - d2)) * ease((u - tm) / (t2 - tm));
      const double rec = ease((u - t2) / (1.0 - t2));
      return (1.0 - d2) + (d2 + spec.recovery_gain) * rec;
    }
    case RecessionShape::kL: {
      // Sudden collapse in the first ~5% of the horizon, then a long slow
      // partial recovery that never reaches nominal.
      const double crash_end = 0.05;
      if (u < crash_end) return 1.0 - d * ease(u / crash_end);
      const double rec = ease((u - crash_end) / (1.0 - crash_end));
      // Recover only half of the loss: the defining L-shape trait.
      return (1.0 - d) + (d - spec.recovery_gain) * 0.5 * rec;
    }
    case RecessionShape::kJ: {
      // Slow decline, slow early recovery that accelerates and overshoots.
      if (u < td) return 1.0 - d * ease(u / td);
      const double w = (u - td) / (1.0 - td);
      const double rec = w * w;  // convex: slow then fast
      return (1.0 - d) + (d + spec.recovery_gain) * rec;
    }
    case RecessionShape::kK: {
      // Divergent: sharp drop, recovery with a kink (modeled as the average
      // of a recovered branch and a stagnant branch).
      const double crash_end = 0.06;
      if (u < crash_end) return 1.0 - d * ease(u / crash_end);
      const double w = ease((u - crash_end) / (1.0 - crash_end));
      const double upper = (1.0 - d) + (d + spec.recovery_gain) * w;
      const double lower = (1.0 - d) + 0.2 * d * w;
      return 0.55 * upper + 0.45 * lower;
    }
  }
  throw std::logic_error("generate_scenario: unknown shape");
}

}  // namespace

PerformanceSeries generate_scenario(const ScenarioSpec& spec) {
  if (spec.length < 4) {
    throw std::invalid_argument("generate_scenario: length must be >= 4");
  }
  if (!(spec.trough_at > 0.0 && spec.trough_at < 1.0)) {
    throw std::invalid_argument("generate_scenario: trough_at must lie in (0, 1)");
  }
  if (!(spec.depth > 0.0 && spec.depth < 1.0)) {
    throw std::invalid_argument("generate_scenario: depth must lie in (0, 1)");
  }
  if (spec.shape == RecessionShape::kW &&
      !(spec.second_dip_at > spec.trough_at && spec.second_dip_at < 1.0)) {
    throw std::invalid_argument(
        "generate_scenario: second_dip_at must lie in (trough_at, 1)");
  }

  if (!(spec.noise >= 0.0)) {
    throw std::invalid_argument("generate_scenario: noise must be >= 0");
  }

  std::vector<double> values(spec.length);
  const double denom = static_cast<double>(spec.length - 1);
  for (std::size_t i = 0; i < spec.length; ++i) {
    values[i] = base_curve(spec, static_cast<double>(i) / denom);
  }
  // normal_distribution requires a positive stddev, so noise 0 builds none.
  if (spec.noise > 0.0) {
    std::mt19937_64 rng(spec.seed);
    std::normal_distribution<double> gauss(0.0, spec.noise);
    for (std::size_t i = 1; i < spec.length; ++i) values[i] *= 1.0 + gauss(rng);
  }
  values[0] = 1.0;

  std::string name = std::string("synthetic-") + std::string(to_string(spec.shape));
  return PerformanceSeries(std::move(name), std::move(values));
}

PerformanceSeries generate_shape(RecessionShape shape, std::size_t length,
                                 std::uint64_t seed) {
  ScenarioSpec spec;
  spec.shape = shape;
  spec.length = length;
  spec.seed = seed;
  switch (shape) {
    case RecessionShape::kV:
      spec.depth = 0.028;
      spec.trough_at = 0.15;
      spec.recovery_gain = 0.05;
      break;
    case RecessionShape::kU:
      spec.depth = 0.022;
      spec.trough_at = 0.3;
      spec.recovery_gain = 0.025;
      break;
    case RecessionShape::kW:
      spec.depth = 0.015;
      spec.trough_at = 0.12;
      spec.second_dip_depth = 0.024;
      spec.second_dip_at = 0.6;
      spec.recovery_gain = 0.0;
      break;
    case RecessionShape::kL:
      spec.depth = 0.14;
      spec.trough_at = 0.05;
      spec.recovery_gain = 0.0;
      break;
    case RecessionShape::kJ:
      spec.depth = 0.03;
      spec.trough_at = 0.35;
      spec.recovery_gain = 0.06;
      break;
    case RecessionShape::kK:
      spec.depth = 0.13;
      spec.trough_at = 0.06;
      spec.recovery_gain = 0.04;
      break;
  }
  return generate_scenario(spec);
}

}  // namespace prm::data
