// certified.hpp — certified Theorem 5.1 evaluation (escalation ladder).
//
// Certified counterparts of the threshold winning-probability kernels in
// core/nonoblivious.hpp: instead of a bare double they return a
// CertifiedValue — a rigorous enclosure of the exact value — escalating
// compensated double → dyadic interval → exact Rational until the enclosure
// is narrower than the policy tolerance (util/certify.hpp). The alternating
// inclusion-exclusion sums of Theorem 5.1 cancel catastrophically for large
// n (terms of size ~ (n − t)^n against a result in [0, 1]), which is exactly
// the regime where the plain double kernels silently lose every digit; the
// certified versions either prove their answer or visibly escalate.
#pragma once

#include <cstdint>
#include <span>

#include "util/certify.hpp"
#include "util/rational.hpp"

namespace ddm::core {

/// Certified Theorem 5.1 for arbitrary thresholds a ∈ [0, 1]^n. Tier costs:
/// double/interval O(3^n) (any n ≤ 20), exact O(3^n) rational (n ≤ 16 — the
/// exact tier reports NumericError above that and the ladder returns the
/// best interval enclosure instead). Throws std::invalid_argument on bad
/// inputs, NumericError when no tier can evaluate the instance.
[[nodiscard]] CertifiedValue certified_threshold_winning_probability(
    std::span<const util::Rational> a, const util::Rational& t, const EvalPolicy& policy = {});

/// Certified symmetric Theorem 5.1 (all thresholds equal beta): O(n²) terms
/// in every tier, so even the exact tier is cheap — this is the evaluator
/// the ill-conditioned large-n demonstrations use, and the one `auto` sends
/// symmetric requests to. Two rungs: a long-double tier 0 that accepts any
/// rational beta and t (n <= 67), then the exact rational sum, which polls
/// policy.control once per outer term. One point of a SymmetricCertifier.
[[nodiscard]] CertifiedValue certified_symmetric_threshold_winning_probability(
    std::uint32_t n, const util::Rational& beta, const util::Rational& t,
    const EvalPolicy& policy = {});

/// The symmetric ladder prepared once per (n, t, policy), so each point of a
/// grid pays only its own arithmetic: t is rounded to long double here,
/// once, and a dyadic beta (every beta taken from a double grid) enters
/// tier 0 with no rounding gap. Tier 0's result is a CertifiedValue::centred
/// enclosure whose "width <= tolerance" test runs in doubles, so an accepted
/// point costs its O(n²) long-double sum and no rational arithmetic.
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

 private:
  std::uint32_t n_;
  util::Rational t_;
  EvalPolicy policy_;
  long double t_value_ = 0;
  long double t_gap_ = 0;
};

}  // namespace ddm::core
