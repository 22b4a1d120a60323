// Multistart driver: run Levenberg-Marquardt from several starting points,
// keep the best finisher, then (optionally) run a Nelder-Mead polish of the
// multistart winner.
//
// Nonlinear resilience fits have narrow basins — especially the mixture
// families, whose recovery-trend coefficient trades off against the Weibull
// scale. A handful of deterministic, seeded starts (user guesses plus
// jittered and Latin-hypercube points inside a search box) makes the fit
// reproducible and robust without a global optimizer.
#pragma once

#include <cstdint>
#include <vector>

#include "optimize/levenberg_marquardt.hpp"
#include "optimize/nelder_mead.hpp"
#include "optimize/problem.hpp"

namespace prm::opt {

struct MultistartOptions {
  /// Number of additional starts sampled inside `search_lo`/`search_hi`
  /// (Latin hypercube), on top of the caller-provided starts.
  int sampled_starts = 8;
  /// Jittered copies of each caller-provided start.
  int jitter_per_start = 2;
  double jitter_rel = 0.25;  ///< Relative jitter magnitude.
  std::uint64_t seed = 0x5eedf17u;
  LmOptions lm;
  /// Nelder-Mead polish of the multistart winner: one run from the best LM
  /// finisher, kept only when it lowers the cost. The polish runs once per
  /// fit, after the index-order reduction, never once per start.
  bool polish_with_nelder_mead = true;
  NelderMeadOptions nm;

  /// Incremental-refit path: when non-empty, a previous solution (in the
  /// problem's own coordinates) assumed to be near the new optimum. The
  /// driver then runs ONLY this start plus `warm_jitter` jittered copies and
  /// `warm_sampled_starts` Latin-hypercube points, ignoring the regular
  /// start set -- orders of magnitude cheaper than the full multistart when
  /// the data changed by a few samples. Must match the problem dimension.
  num::Vector warm_start;
  int warm_jitter = 1;         ///< Jittered copies of the warm start.
  int warm_sampled_starts = 0; ///< Extra LHS safety starts (0 = trust the seed).

  /// Concurrent LM starts: 1 = serial (default), 0 = auto (PRM_THREADS or
  /// hardware_concurrency), N > 1 = up to N concurrent starts. The start set
  /// is pre-generated from per-index seeds and the winner is reduced in fixed
  /// index order, so every setting produces bit-identical results.
  int threads = 1;
};

struct MultistartResult {
  /// The winner. Its function_evaluations and iterations are the winning
  /// start's, plus the polish's when the polish was kept.
  OptimizeResult best;
  int starts_tried = 0;
  int starts_failed = 0;  ///< Starts that produced non-finite costs.
  /// Residual evaluations summed over every start and the polish, kept or not.
  int function_evaluations = 0;
};

/// Minimize 0.5*||r(p)||^2 over starts. `search_lo`/`search_hi` bound the
/// sampled starts (required non-empty iff sampled_starts > 0); caller starts
/// are used as-is.
MultistartResult multistart_least_squares(const ResidualProblem& problem,
                                          const std::vector<num::Vector>& starts,
                                          const num::Vector& search_lo,
                                          const num::Vector& search_hi,
                                          const MultistartOptions& options = {});

/// Deterministic Latin hypercube sample of `count` points in [lo, hi]^n.
std::vector<num::Vector> latin_hypercube(const num::Vector& lo, const num::Vector& hi,
                                         int count, std::uint64_t seed);

/// The exact start set `multistart_least_squares` will try, in try order:
/// caller starts (or the warm start), then jittered copies, then Latin-
/// hypercube samples. Each jittered copy at position `i` draws from its own
/// `std::mt19937_64(options.seed ^ i)` stream, so a start's coordinates
/// depend only on its index and the options -- not on how many other starts
/// exist or on any scheduling. Exposed for the seeding-contract tests.
std::vector<num::Vector> multistart_start_points(const std::vector<num::Vector>& starts,
                                                 const num::Vector& search_lo,
                                                 const num::Vector& search_hi,
                                                 const MultistartOptions& options,
                                                 std::size_t num_parameters);

}  // namespace prm::opt
