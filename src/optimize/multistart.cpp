#include "optimize/multistart.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>

#include "par/parallel.hpp"

namespace prm::opt {

std::vector<num::Vector> latin_hypercube(const num::Vector& lo, const num::Vector& hi,
                                         int count, std::uint64_t seed) {
  if (lo.size() != hi.size()) {
    throw std::invalid_argument("latin_hypercube: bound size mismatch");
  }
  for (std::size_t d = 0; d < lo.size(); ++d) {
    if (!(lo[d] <= hi[d])) throw std::invalid_argument("latin_hypercube: lo > hi");
  }
  if (count <= 0) return {};
  const std::size_t dims = lo.size();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // One stratified permutation per dimension.
  std::vector<std::vector<int>> perms(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    perms[d].resize(count);
    for (int i = 0; i < count; ++i) perms[d][i] = i;
    std::shuffle(perms[d].begin(), perms[d].end(), rng);
  }

  std::vector<num::Vector> pts(count, num::Vector(dims));
  for (int i = 0; i < count; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      const double cell = (perms[d][i] + unit(rng)) / count;
      pts[i][d] = lo[d] + (hi[d] - lo[d]) * cell;
    }
  }
  return pts;
}

std::vector<num::Vector> multistart_start_points(const std::vector<num::Vector>& starts,
                                                 const num::Vector& search_lo,
                                                 const num::Vector& search_hi,
                                                 const MultistartOptions& options,
                                                 std::size_t num_parameters) {
  // Each jittered copy draws from a stream seeded by its own position in the
  // start list, so adding/removing other starts (or running starts out of
  // order on the pool) can never change its coordinates.
  const auto jittered_at = [&options](const num::Vector& s, std::size_t index) {
    std::mt19937_64 rng(options.seed ^ static_cast<std::uint64_t>(index));
    std::normal_distribution<double> gauss(0.0, 1.0);
    num::Vector v = s;
    for (double& x : v) {
      const double scale = options.jitter_rel * std::max(std::fabs(x), 0.1);
      x += scale * gauss(rng);
    }
    return v;
  };

  std::vector<num::Vector> all;
  const bool warm = !options.warm_start.empty();
  if (warm) {
    // Warm path: the previous solution (plus a little jitter) replaces the
    // whole start set.
    if (options.warm_start.size() != num_parameters) {
      throw std::invalid_argument(
          "multistart_least_squares: warm start dimension mismatch");
    }
    all.push_back(options.warm_start);
    for (int j = 0; j < options.warm_jitter; ++j) {
      all.push_back(jittered_at(options.warm_start, all.size()));
    }
  } else {
    all = starts;
    for (const num::Vector& s : starts) {
      for (int j = 0; j < options.jitter_per_start; ++j) {
        all.push_back(jittered_at(s, all.size()));
      }
    }
  }

  const int sampled = warm ? options.warm_sampled_starts : options.sampled_starts;
  if (sampled > 0) {
    if (search_lo.empty() || search_hi.empty()) {
      throw std::invalid_argument(
          "multistart_least_squares: sampled starts require a search box");
    }
    auto lhs = latin_hypercube(search_lo, search_hi, sampled, options.seed ^ 0x9e3779b97f4a7c15ULL);
    all.insert(all.end(), lhs.begin(), lhs.end());
  }
  if (all.empty()) {
    throw std::invalid_argument("multistart_least_squares: no starting points");
  }
  return all;
}

MultistartResult multistart_least_squares(const ResidualProblem& problem,
                                          const std::vector<num::Vector>& starts,
                                          const num::Vector& search_lo,
                                          const num::Vector& search_hi,
                                          const MultistartOptions& options) {
  const std::vector<num::Vector> all =
      multistart_start_points(starts, search_lo, search_hi, options, problem.num_parameters);

  std::vector<OptimizeResult> results = par::parallel_map<OptimizeResult>(
      all.size(),
      [&problem, &options, &all](std::size_t i) {
        return levenberg_marquardt(problem, all[i], options.lm);
      },
      options.threads);

  // Reduce in index order with a strict '<' so cost ties keep the lowest
  // index -- the same winner the serial loop picks at any thread count.
  MultistartResult out;
  out.best.cost = std::numeric_limits<double>::infinity();
  out.best.stop_reason = StopReason::kNumericalFailure;
  for (const OptimizeResult& r : results) {
    ++out.starts_tried;
    out.function_evaluations += r.function_evaluations;
    if (!std::isfinite(r.cost)) {
      ++out.starts_failed;
      continue;
    }
    if (r.cost < out.best.cost) out.best = r;
  }

  // Polish the winner only, on the caller after the fixed-order reduction,
  // so the polished result is also the same at any thread count.
  if (options.polish_with_nelder_mead && std::isfinite(out.best.cost) &&
      out.best.usable()) {
    NelderMeadOptions nm = options.nm;
    nm.initial_step = 0.02;
    OptimizeResult polished = nelder_mead_least_squares(problem, out.best.parameters, nm);
    out.function_evaluations += polished.function_evaluations;
    if (std::isfinite(polished.cost) && polished.cost < out.best.cost) {
      polished.function_evaluations += out.best.function_evaluations;
      polished.iterations += out.best.iterations;
      out.best = std::move(polished);
    }
  }
  return out;
}

}  // namespace prm::opt
