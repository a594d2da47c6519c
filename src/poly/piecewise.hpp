// piecewise.hpp — piecewise polynomials over the rationals with exact
// global maximization.
//
// The winning probability P(β) of the symmetric single-threshold protocol is
// a piecewise polynomial in the common threshold β: each indicator condition
// in Theorem 5.1 (e.g. "t − lβ > 0") toggles at a rational breakpoint, and
// between consecutive breakpoints P is a single polynomial. Section 5.2
// derives those pieces by hand for n = 3 and n = 4; this class holds them in
// exact form and finds the global maximum certifiably: the optimum is either
// a breakpoint or an isolated root of a piece's derivative.
#pragma once

#include <vector>

#include "poly/polynomial.hpp"
#include "poly/roots.hpp"
#include "util/interval.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::poly {

/// A polynomial valid on the closed interval [lo, hi].
struct Piece {
  util::Rational lo;
  util::Rational hi;
  QPoly poly;
};

/// Location and value of a maximum candidate.
struct MaxCandidate {
  /// Isolating interval for the maximizing point (exact when lo == hi,
  /// e.g. at breakpoints).
  RootInterval location;
  /// Value of the piece polynomial at location.midpoint() — exact there, and
  /// within Lipschitz(piece) * location.width() of the value at the true
  /// critical point.
  util::Rational value;
  /// Index of the piece the candidate lives on.
  std::size_t piece_index = 0;
  /// True when the candidate is an interior critical point (root of the
  /// derivative), false for an interval endpoint.
  bool interior_critical = false;
  /// Certified enclosure of the piece value over `location` (interval
  /// Horner); for endpoint candidates this is the exact point value.
  util::RationalInterval value_bounds{util::Rational{0}};
  /// True when interval refinement PROVED this candidate is the global
  /// maximum (its value enclosure separates from, or exactly ties, every
  /// other candidate's). maximize() leaves this false only if the round
  /// limit was reached before separation — e.g. two genuinely equal interior
  /// maxima at distinct algebraic points.
  bool certified = false;
};

/// Piecewise polynomial on a closed interval, pieces meeting at breakpoints.
class PiecewisePolynomial {
 public:
  /// Pieces must be non-empty, contiguous (piece[i].hi == piece[i+1].lo) and
  /// increasing; throws std::invalid_argument otherwise. Pieces are expected
  /// to agree at shared breakpoints if the function is continuous; that is
  /// validated by `is_continuous()` rather than enforced here.
  explicit PiecewisePolynomial(std::vector<Piece> pieces);

  [[nodiscard]] const std::vector<Piece>& pieces() const noexcept { return pieces_; }
  [[nodiscard]] const util::Rational& domain_lo() const noexcept { return pieces_.front().lo; }
  [[nodiscard]] const util::Rational& domain_hi() const noexcept { return pieces_.back().hi; }

  /// Exact evaluation; throws std::out_of_range outside the domain.
  /// At a shared breakpoint, the left piece wins (they agree if continuous).
  [[nodiscard]] util::Rational operator()(const util::Rational& x) const;
  /// Fast double evaluation (same piece-selection rule).
  [[nodiscard]] double eval_double(double x) const;

  /// True iff adjacent pieces agree exactly at every shared breakpoint.
  [[nodiscard]] bool is_continuous() const;

  /// Piecewise formal derivative (same breakpoints).
  [[nodiscard]] PiecewisePolynomial derivative() const;

  /// Exact integral over [a, b] ⊆ domain (throws std::out_of_range
  /// otherwise; a <= b required).
  [[nodiscard]] util::Rational integral(const util::Rational& a,
                                        const util::Rational& b) const;

  /// Global maximum over the full domain, CERTIFIED by interval arithmetic:
  /// interior critical points are isolated with Sturm sequences, refined to
  /// `refine_width`, then candidates' value enclosures (interval Horner over
  /// the isolating intervals) are separated by further bisection until one
  /// candidate provably dominates (or exactly ties) all others — see
  /// MaxCandidate::certified. Returns the best candidate; `all_candidates`
  /// (when non-null) receives every candidate examined, sorted by location.
  /// `control` is polled once per piece and once per certification round; a
  /// stop throws ddm::DeadlineExceeded / ddm::Cancelled carrying pieces done
  /// of pieces total.
  [[nodiscard]] MaxCandidate maximize(
      const util::Rational& refine_width = default_refine_width(),
      std::vector<MaxCandidate>* all_candidates = nullptr,
      const util::RunControl& control = {}) const;

  /// maximize()'s default isolating-interval width, 2^-96.
  [[nodiscard]] static util::Rational default_refine_width() {
    return util::Rational{util::BigInt{1}, util::BigInt::pow(util::BigInt{2}, 96)};
  }

 private:
  std::vector<Piece> pieces_;
};

}  // namespace ddm::poly
