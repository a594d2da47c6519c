// volume.hpp — exact volumes of the paper's polytopes (Section 2.1).
//
// The cornerstone of the combinatorial framework is Proposition 2.2: an
// inclusion-exclusion formula for the volume of
//   ΣΠ^m(σ, π) = Σ^m(σ) ∩ Π^m(π),
// the intersection of the orthogonal simplex { x >= 0 : Σ x_l/σ_l <= 1 }
// with the box [0,π_1] × ... × [0,π_m]. Every probability in the paper
// reduces to a ratio of such volumes.
#pragma once

#include <span>
#include <vector>

#include "util/certify.hpp"
#include "util/rational.hpp"

namespace ddm::geom {

/// Lemma 2.1(1): Vol(Σ^m(σ)) = (1/m!) · Π σ_l.
/// Requires every σ_l > 0 (throws std::invalid_argument).
[[nodiscard]] util::Rational simplex_volume(std::span<const util::Rational> sigma);

/// Lemma 2.1(2): Vol(Π^m(π)) = Π π_l. Requires every π_l > 0.
[[nodiscard]] util::Rational box_volume(std::span<const util::Rational> pi);

/// Lemma 2.3: the volume of the "corner" simplex
///   { x >= 0 : Σ x_l/σ_l <= 1  and  x_l >= π_l for l in I },
/// equal to Vol(Σ^m(σ)) · (1 − Σ_{l∈I} π_l/σ_l)^m when that sum is < 1,
/// and 0 otherwise. `in_subset[l]` marks membership of l in I.
[[nodiscard]] util::Rational corner_simplex_volume(std::span<const util::Rational> sigma,
                                                   std::span<const util::Rational> pi,
                                                   const std::vector<bool>& in_subset);

/// Proposition 2.2: Vol(ΣΠ^m(σ, π)) by inclusion-exclusion over subsets
/// (exponential in m; exact: an integer sum over the ratios' common
/// denominator). Requires sigma.size() == pi.size() >= 1, m <= 30 and all
/// sides positive.
[[nodiscard]] util::Rational simplex_box_volume(std::span<const util::Rational> sigma,
                                                std::span<const util::Rational> pi);

/// Floating-point version of Proposition 2.2 for large m / fast sweeps.
/// Throws ddm::NumericError when an intermediate (the Π σ_l prefactor or a
/// subset term) leaves the finite double range instead of returning inf/NaN.
[[nodiscard]] double simplex_box_volume_double(std::span<const double> sigma,
                                               std::span<const double> pi);

/// Certified Proposition 2.2: returns a rigorous enclosure of
/// Vol(ΣΠ^m(σ, π)), escalating compensated double → exact per `policy`
/// (util/certify.hpp). Tier 0 runs O(2^m) in double for m <= 62 when every
/// side is exactly a double; the exact rung runs the integer sum for
/// m <= 30 and reports NumericError, naming that cap, above it.
[[nodiscard]] ddm::CertifiedValue certified_simplex_box_volume(
    std::span<const util::Rational> sigma, std::span<const util::Rational> pi,
    const ddm::EvalPolicy& policy = {});

}  // namespace ddm::geom
