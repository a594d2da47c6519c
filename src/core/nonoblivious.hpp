// nonoblivious.hpp — winning probabilities of single-threshold protocols
// (Section 5, Theorem 5.1).
//
// A deterministic single-threshold protocol has thresholds a_1..a_n; player i
// picks bin 0 iff x_i <= a_i. Conditioned on the decision vector b, the
// inputs of 0-players are U[0, a_i] and of 1-players U[a_i, 1], so the two
// no-overflow probabilities come from Lemma 2.4 and Lemma 2.7. Theorem 5.1
// folds P(y = b) = Π_{b_i=0} a_i · Π_{b_i=1} (1 − a_i) into the brackets:
//
//  P_A(t) = Σ_b  [ (1/(n−|b|)!) Σ_{I ⊆ zeros(b), Σa_l < t} (−1)^{|I|}(t − Σ_{l∈I} a_l)^{n−|b|} ]
//              · [ Π_{l∈ones(b)} (1−a_l)
//                  − (1/|b|!) Σ_{I ⊆ ones(b), |b|−t−|I|+Σa_l > 0} (−1)^{|I|}(|b|−t−|I|+Σ_{l∈I}a_l)^{|b|} ]
//
// The general evaluator runs in O(3^n) exact arithmetic; the symmetric
// special case (all a_i = β, Section 5.2) collapses to O(n²) terms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// Theorem 5.1 for arbitrary thresholds a_i ∈ [0, 1]. Exact: the inputs go
/// over one common denominator and the O(3^n) sum adds integer terms.
/// Throws std::invalid_argument for n > 16 (use the symmetric version or the
/// double engine for larger systems).
[[nodiscard]] util::Rational threshold_winning_probability(std::span<const util::Rational> a,
                                                           const util::Rational& t);

/// Double-precision Theorem 5.1 for arbitrary thresholds (same O(3^n) sum).
[[nodiscard]] double threshold_winning_probability(std::span<const double> a, double t);

/// Points per parallel chunk of threshold_winning_probability_batch.
/// Fault-injection directives address chunks by ordinal
/// floor(first_point_index / kThresholdBatchBlock).
inline constexpr std::size_t kThresholdBatchBlock = 16;

/// Evaluates threshold_winning_probability(points[p], t) for every p, fanning
/// blocks of kThresholdBatchBlock points out across the global thread pool
/// (util::parallel_for). Each point is one serial kernel call, so values[p]
/// is bitwise equal to a single-point call for any thread count. Used by the
/// forced `batch` engine and the probe batches of `maximize_thresholds`.
/// Validates all points up front in index order with the single-point
/// evaluator's messages.
/// `control` (util/resilience.hpp) is polled at block boundaries: a fired
/// deadline or cancellation surfaces as ddm::DeadlineExceeded /
/// ddm::Cancelled with the completed-block count. The default runs to
/// completion at zero polling cost.
[[nodiscard]] std::vector<double> threshold_winning_probability_batch(
    std::span<const std::vector<double>> points, double t,
    const util::RunControl& control = {});

/// Symmetric Theorem 5.1: all thresholds equal β; O(n²) exact terms
///   P(β) = Σ_k C(n,k) · B0_{n−k}(β) · B1_k(β),
/// where the zeros bracket B0_m(β) = (1/m!) Σ_{l, t−lβ>0} (−1)^l C(m,l) (t − lβ)^m
/// and the ones bracket B1_k(β) = (1−β)^k − (1/k!) Σ_{l, k−t−l+lβ>0}
/// (−1)^l C(k,l) (k − t − l + lβ)^k. With β and t over one common
/// denominator, every term is an integer and the sum normalises once.
/// `control` is polled once per outer k: a fired deadline or cancellation
/// surfaces as ddm::DeadlineExceeded / ddm::Cancelled counting the k-terms
/// finished, so a large-n exact sum cannot outlive its budget.
[[nodiscard]] util::Rational symmetric_threshold_winning_probability(
    std::uint32_t n, const util::Rational& beta, const util::Rational& t,
    const util::RunControl& control = {});
/// The same in double: the cancellation-free sum of core/irwin_hall_sum.hpp,
/// within about (12n + 2) roundoffs of the exact value at every n.
[[nodiscard]] double symmetric_threshold_winning_probability(std::uint32_t n, double beta,
                                                             double t);

}  // namespace ddm::core
