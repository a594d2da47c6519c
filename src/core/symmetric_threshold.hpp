// symmetric_threshold.hpp — exact symbolic analysis of symmetric
// single-threshold protocols (Section 5.2).
//
// For a common threshold β, the winning probability of Theorem 5.1 becomes a
// piecewise polynomial P(β) on [0, 1]: each indicator condition
//   t − lβ > 0            (zeros bracket, l = 1..n)
//   k − t − l + lβ > 0    (ones bracket,  k = 1..n, l = 1..k)
// flips at a rational breakpoint, and between breakpoints P is one exact
// polynomial. This module constructs those pieces symbolically (exactly what
// the paper does by hand for n = 3, t = 1 and n = 4, t = 4/3), then finds
// the optimal threshold as a certified root of the derivative — the paper's
// "optimality condition" (e.g. β² − 2β + 6/7 = 0, root 1 − √(1/7) ≈ 0.622).
#pragma once

#include <cstdint>
#include <vector>

#include "poly/piecewise.hpp"
#include "poly/polynomial.hpp"
#include "poly/roots.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// The certified optimum of P(β) over [0, 1].
struct SymmetricOptimum {
  /// Isolating interval for the optimal threshold β*; exact when the optimum
  /// is a breakpoint or domain endpoint.
  poly::RootInterval beta;
  /// P(β) at beta.midpoint() — exact there; within Lipschitz * width of the
  /// true optimum value.
  util::Rational value;
  /// Index of the piece containing the optimum.
  std::size_t piece_index = 0;
  /// True when β* is an interior critical point of its piece.
  bool interior = false;
  /// Derivative of the optimal piece — the optimality condition; when
  /// `interior` is true, β* is one of its roots.
  poly::QPoly optimality_condition;
  /// True when interval arithmetic proved this is the global maximum
  /// (see poly::MaxCandidate::certified).
  bool certified = false;
};

/// Symbolic piecewise representation of β ↦ P_A(t) for the symmetric
/// single-threshold protocol with n players and capacity t.
class SymmetricThresholdAnalysis {
 public:
  /// Derive the exact piecewise polynomial. Throws std::invalid_argument for
  /// n == 0 or t <= 0. The brackets are integer polynomials, each built once
  /// from the one before it; a piece is an integer numerator over n!·s^n
  /// (t = r/s), updated from its left neighbour by the terms whose brackets
  /// changed and normalized once per coefficient (breakpoints are O(n²)).
  /// `control` is polled once per piece and once per recomputed term; a stop
  /// throws ddm::DeadlineExceeded / ddm::Cancelled carrying pieces done of
  /// pieces total.
  [[nodiscard]] static SymmetricThresholdAnalysis build(std::uint32_t n, util::Rational t,
                                                        const util::RunControl& control = {});

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] const util::Rational& t() const noexcept { return t_; }
  [[nodiscard]] const poly::PiecewisePolynomial& winning_probability() const noexcept {
    return pieces_;
  }

  /// All breakpoints including 0 and 1, ascending.
  [[nodiscard]] std::vector<util::Rational> breakpoints() const;

  /// Certified global optimum over β ∈ [0, 1]; `control` is polled as in
  /// PiecewisePolynomial::maximize.
  [[nodiscard]] SymmetricOptimum optimize(const util::RunControl& control = {}) const;

 private:
  SymmetricThresholdAnalysis(std::uint32_t n, util::Rational t, poly::PiecewisePolynomial pieces)
      : n_(n), t_(std::move(t)), pieces_(std::move(pieces)) {}

  std::uint32_t n_;
  util::Rational t_;
  poly::PiecewisePolynomial pieces_;
};

}  // namespace ddm::core
