// deviating.hpp — worst-case analysis under k adversarially deviating players.
//
// "Consensus in Equilibrium" (PAPERS.md) asks how a protocol's guarantee
// degrades when some players stop following it. This module answers that for
// the paper's symmetric threshold protocols: n players with x_i ~ U[0, 1],
// of which k deviate. A follower drops into bin 0 iff x_i <= beta; a
// deviator ignores its input and picks a bin adversarially (obliviously —
// the choice may not depend on the realized inputs, matching the oblivious
// adversary of Section 4). By symmetry the adversary's strategy space
// collapses to j, the number of deviators sent to bin 0, and the worst case
// is the minimum over j in {0..k}.
//
// For fixed j, conditioning on the number m of followers in bin 0:
//
//   P_j = Σ_m C(n−k, m) β^m (1−β)^{n−k−m}
//           · P(Σ_m U[0,β] + Σ_j U[0,1] <= t)                      (bin 0)
//           · P(Σ_{n−k−m} U[β,1] + Σ_{k−j} U[0,1] <= t)            (bin 1)
//
// both factors via Lemma 2.4 (prob/uniform_sum.hpp), the bin-1 load
// recentered by its (n−k−m)·β shift. Exact Rational; the inclusion-exclusion
// CDFs are O(2^n), so n is capped at kDeviatingMaxExactN (the heterogeneous
// module's cap) — the Monte Carlo cross-check below covers larger n.
//
// With k = 0 this reduces to Theorem 5.1 exactly; with β at the homogeneous
// optimum it measures the protocol's robustness margin.
#pragma once

#include <cstdint>
#include <vector>

#include "prob/rng.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// Largest n the exact deviating analysis accepts (the conditional CDFs are
/// O(2^n) inclusion-exclusion sums — the same economics as
/// core/heterogeneous.cpp, and the same cap).
inline constexpr std::uint32_t kDeviatingMaxExactN = 14;

/// P(win) of the symmetric threshold-β protocol when exactly j of the k
/// deviators choose bin 0 and the rest bin 1. Exact; throws ddm::Error when
/// n == 0, k >= n, j > k, β outside [0, 1], or n > kDeviatingMaxExactN.
[[nodiscard]] util::Rational deviating_threshold_winning_probability(
    std::uint32_t n, std::uint32_t deviators, std::uint32_t bin0_deviators,
    const util::Rational& beta, const util::Rational& t);

/// The adversarial worst case: min over j in {0..k} of the probability
/// above. Same validation and cap.
[[nodiscard]] util::Rational worst_case_deviating_winning_probability(
    std::uint32_t n, std::uint32_t deviators, const util::Rational& beta,
    const util::Rational& t);

/// Monte Carlo cross-check of the worst case: simulates the same model per
/// adversary strategy j (deviator bin choices fixed, follower inputs and
/// choices drawn), one strategy after the other on `rng`, and returns the
/// minimum estimate over j. Throws ddm::Error on zero trials or invalid
/// (n, k, beta); polls `control` every kTrialsPerBlock trials.
struct DeviatingSimResult {
  double estimate = 0.0;        ///< min over j of the per-strategy estimates
  std::uint32_t worst_bin0 = 0; ///< the j attaining the minimum
  std::uint64_t trials = 0;     ///< trials per strategy
};
[[nodiscard]] DeviatingSimResult estimate_worst_case_deviating(
    std::uint32_t n, std::uint32_t deviators, double beta, double t, std::uint64_t trials,
    prob::Rng& rng, const util::RunControl& control = {});

}  // namespace ddm::core
