// bernstein.hpp — integer polynomials in the Bernstein basis of an interval.
//
// On [lo, hi] a polynomial of degree d is Σ_j b_j · C(d,j) u^j (1−u)^(d−j)
// with u = (x − lo)/(hi − lo). Two properties make this basis the workhorse
// of PiecewisePolynomial::maximize and of root isolation (poly/roots.cpp):
//   * max_j b_j bounds p above on [lo, hi] — the curve lies in the convex
//     hull of its control points (Farouki and Rajan 1987) — and the bound is
//     an exact rational;
//   * the number of sign changes in (b_j) is at least the number of roots in
//     the open interval (lo, hi), counted with multiplicity, and has the same
//     parity (Descartes' rule of signs; Collins and Akritas 1976).
//
// Coefficients are integers: a vector holds the true b_j times one positive
// factor, which changes neither their signs nor their order.
#pragma once

#include <vector>

#include "poly/polynomial.hpp"
#include "util/bigint.hpp"
#include "util/rational.hpp"

namespace ddm::poly {

/// Bernstein coefficients of an integer polynomial on [lo, hi]: the true
/// coefficients are coeffs[j] / scale, with scale > 0.
struct BernsteinForm {
  std::vector<util::BigInt> coeffs;
  util::BigInt scale;

  /// The exact upper bound max_j b_j of the polynomial on [lo, hi].
  [[nodiscard]] util::Rational upper_bound() const;
};

/// Converts p to the Bernstein basis of [lo, hi] (lo < hi) in O(d²) integer
/// operations. The zero polynomial gives one zero coefficient.
[[nodiscard]] BernsteinForm to_bernstein(const ZPoly& p, const util::Rational& lo,
                                         const util::Rational& hi);

}  // namespace ddm::poly
