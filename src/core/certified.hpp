// certified.hpp — certified Theorem 5.1 evaluation (escalation ladder).
//
// Certified counterparts of the threshold winning-probability kernels in
// core/nonoblivious.hpp: instead of a bare double they return a
// CertifiedValue — a rigorous enclosure of the exact value — escalating
// from a double kernel with an error bound to the exact sum when the
// enclosure is wider than the policy tolerance (util/certify.hpp). The alternating
// inclusion-exclusion sums of the general Theorem 5.1 cancel catastrophically
// for large n (terms of size ~ (n − t)^n against a result in [0, 1]); the
// certified version either proves its answer or visibly escalates. The
// symmetric case needs no cancellation (core/irwin_hall_sum.hpp), so its
// tier 0 settles nearly every point with an a priori bound.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/certify.hpp"
#include "util/rational.hpp"

namespace ddm::core {

/// Certified Theorem 5.1 for arbitrary thresholds a ∈ [0, 1]^n. Two rungs:
/// tier 0, the O(3^n) double kernel with a running error bound (n ≤ 20,
/// only when every input is exactly a double), then the exact O(3^n) integer
/// sum (n ≤ 16; above that the exact rung reports NumericError naming the
/// cap). Throws std::invalid_argument on bad inputs, NumericError when no
/// tier can evaluate the instance — at n = 17..20 with an input that is not
/// a double, the exact rung's.
[[nodiscard]] CertifiedValue certified_threshold_winning_probability(
    std::span<const util::Rational> a, const util::Rational& t, const EvalPolicy& policy = {});

/// Certified symmetric Theorem 5.1 (all thresholds equal beta) — the
/// evaluator `auto` sends symmetric requests to. Two rungs: tier 0, the
/// positive double sum of core/irwin_hall_sum.hpp with its a priori bound
/// (O(n³) at worst, any n, any rational beta and t), then the exact sum
/// (O(n²) integer terms). Both poll policy.control once per outer term.
/// t <= 0 and t >= n are answered exactly (0 and 1) with no rung at all.
/// One point of a SymmetricCertifier.
[[nodiscard]] CertifiedValue certified_symmetric_threshold_winning_probability(
    std::uint32_t n, const util::Rational& beta, const util::Rational& t,
    const EvalPolicy& policy = {});

/// The symmetric ladder prepared once per (n, t, policy), so each point of a
/// grid pays only its own arithmetic: t is rounded to double here, once,
/// and a dyadic beta (every beta taken from a double grid) enters tier 0
/// with no rounding gap. Tier 0's result is a CertifiedValue::centred
/// enclosure whose "width <= tolerance" test runs in doubles, so an accepted
/// point costs its double sum and no rational arithmetic.
/// Enclosures, values, bounds, tiers, EvalStats and certify.* counters are
/// identical to evaluate_on_ladder's, point for point. Throws
/// std::invalid_argument for n == 0 (construction) or beta outside [0, 1]
/// (evaluation).
class SymmetricCertifier {
 public:
  SymmetricCertifier(std::uint32_t n, util::Rational t, EvalPolicy policy = {});

  [[nodiscard]] CertifiedValue evaluate(const util::Rational& beta) const;
  /// The exact value of `beta` (a finite double is a dyadic rational).
  [[nodiscard]] CertifiedValue evaluate(double beta) const;

  /// The same ladder with beta and t rounded per call, as every point paid
  /// before the request was prepared — the reference evaluate() is tested
  /// against.
  [[nodiscard]] CertifiedValue evaluate_on_ladder(const util::Rational& beta) const;

  /// The largest bound tier 0 can return for any beta of this request
  /// (symmetric_threshold_sum_worst_bound; 0 when t <= 0 or t >= n, where
  /// every point is exact): when the policy tolerance is at or above it, no
  /// point escalates.
  [[nodiscard]] double tier0_worst_bound() const;

 private:
  std::uint32_t n_;
  util::Rational t_;
  EvalPolicy policy_;
  /// The exact P when no β matters (t <= 0 or t >= n).
  std::optional<util::Rational> settled_;
  double t_value_ = 0;
  double t_gap_ = 0;
};

}  // namespace ddm::core
