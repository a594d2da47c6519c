// threshold_optimizer.hpp — derivative-free search over threshold vectors.
//
// Theorem 5.2's optimality conditions are first-order interior conditions
// derived under symmetry. This module searches the FULL threshold box
// [0,1]^n numerically (compass/pattern search on the exact-formula double
// evaluator), which lets us test the symmetry claim empirically: from
// symmetric starts the search reproduces the paper's symmetric optima; from
// asymmetric starts it can escape to identity-based corner protocols (e.g.
// thresholds (0,0,1,1) = a deterministic split) that dominate every
// symmetric rule — quantifying exactly what the paper's anonymous setting
// gives up. See EXPERIMENTS.md ("scope of Theorem 5.2").
#pragma once

#include <cstdint>
#include <vector>

namespace ddm::core {

/// Result of a pattern search run.
struct ThresholdSearchResult {
  std::vector<double> thresholds;  ///< best vector found
  double value = 0.0;              ///< winning probability there (Theorem 5.1)
  std::uint32_t evaluations = 0;   ///< objective evaluations spent
  double final_step = 0.0;         ///< mesh size at termination
};

/// Compass search maximizing threshold_winning_probability(a, t) over
/// a ∈ [0,1]^n from `start`: each iteration evaluates the 2n probes ±step
/// along every axis concurrently (threshold_winning_probability_batch),
/// moves to the best strictly-improving probe, and halves the step when none
/// improves, until step < tolerance. Deterministic regardless of thread
/// count. Throws
/// std::invalid_argument on empty start, start outside [0,1]^n,
/// tolerance <= 0, or n > 16.
[[nodiscard]] ThresholdSearchResult maximize_thresholds(std::vector<double> start, double t,
                                                        double initial_step = 0.25,
                                                        double tolerance = 1e-10,
                                                        std::uint32_t max_evaluations = 200000);

/// Same search restricted to the symmetric diagonal a_1 = ... = a_n — the
/// class Theorem 5.2 analyzes. One-dimensional golden-section-style compass.
[[nodiscard]] ThresholdSearchResult maximize_symmetric_threshold(
    std::uint32_t n, double t, double start = 0.5, double initial_step = 0.25,
    double tolerance = 1e-12);

}  // namespace ddm::core
