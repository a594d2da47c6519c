// roots.hpp — exact isolation and refinement of real polynomial roots.
//
// Used to solve the paper's optimality conditions: e.g. for n = 3, t = 1 the
// condition is β² − 2β + 6/7 = 0 whose root in (1/2, 1] is 1 − √(1/7) ≈ 0.622
// (Section 5.2.1), and for n = 4, t = 4/3 a cubic with root ≈ 0.678
// (Section 5.2.2). Roots are returned as exact isolating intervals that can
// be refined to any requested width, plus a double approximation.
//
// Isolation is Descartes' rule of signs on integer Bernstein coefficients
// with de Casteljau halving (poly/bernstein.hpp); refinement is sign
// bisection evaluated in integers. Both compute a square-free part — a gcd
// over Q — only when a multiple root forces it. The tests count roots
// against an independent Sturm-sequence oracle (tests/sturm.hpp).
#pragma once

#include <vector>

#include "poly/polynomial.hpp"
#include "util/rational.hpp"

namespace ddm::poly {

/// An interval (lo, hi] certified to contain exactly one distinct real root.
/// When lo == hi the root is the rational point itself.
struct RootInterval {
  util::Rational lo;
  util::Rational hi;

  [[nodiscard]] util::Rational midpoint() const {
    return (lo + hi) * util::Rational{1, 2};
  }
  [[nodiscard]] util::Rational width() const { return hi - lo; }
  [[nodiscard]] double approx() const { return midpoint().to_double(); }
  [[nodiscard]] bool is_exact() const { return lo == hi; }
};

/// Isolate all distinct real roots of p inside (lo, hi]. Multiple roots are
/// reported once. Throws std::invalid_argument for the zero polynomial or
/// lo > hi. Results are sorted ascending and pairwise disjoint; the
/// endpoints of a non-exact interval are never roots, so p changes sign
/// across it unless the root it holds has even multiplicity.
[[nodiscard]] std::vector<RootInterval> isolate_roots(const QPoly& p, const util::Rational& lo,
                                                      const util::Rational& hi);
/// The same for an integer polynomial (no denominators to clear).
[[nodiscard]] std::vector<RootInterval> isolate_roots(const ZPoly& p, const util::Rational& lo,
                                                      const util::Rational& hi);

/// Cauchy root bound: all real roots of p lie in [-B, B] with
/// B = 1 + max_i |a_i| / |a_n|. Throws std::invalid_argument on zero input.
[[nodiscard]] util::Rational cauchy_root_bound(const QPoly& p);

/// Isolate all distinct real roots of p (bounds from cauchy_root_bound).
[[nodiscard]] std::vector<RootInterval> isolate_all_roots(const QPoly& p);

/// Shrink an isolating interval by exact bisection until its width is at most
/// `width`. `p` must be the polynomial that produced the interval. Bisects p
/// itself when it changes sign across the interval; only an even-multiplicity
/// root (no sign change) costs the square-free part.
[[nodiscard]] RootInterval refine_root(const QPoly& p, RootInterval interval,
                                       const util::Rational& width);
/// The same for an integer polynomial.
[[nodiscard]] RootInterval refine_root(const ZPoly& p, RootInterval interval,
                                       const util::Rational& width);

/// Convenience: the unique root of p in (lo, hi], refined to `width`.
/// Throws std::logic_error if the root count in the interval is not one.
[[nodiscard]] RootInterval unique_root(const QPoly& p, const util::Rational& lo,
                                       const util::Rational& hi, const util::Rational& width);

}  // namespace ddm::poly
