// sturm.hpp — Sturm sequences for exact real-root counting, the tests'
// independent oracle for poly/roots.hpp.
//
// The optimal thresholds of Section 5 are algebraic numbers (roots of the
// derivative of the piecewise winning-probability polynomial). The library
// isolates them with Descartes' rule on Bernstein coefficients; Sturm's
// theorem counts them by a different route, exactly over the rationals: the
// number of distinct real roots of a square-free polynomial in (a, b] equals
// V(a) - V(b), where V(x) counts sign changes along the Sturm chain
// evaluated at x. Built into test_sturm, test_roots and
// test_symmetric_threshold only (tests/CMakeLists.txt).
#pragma once

#include <vector>

#include "poly/polynomial.hpp"
#include "util/rational.hpp"

namespace ddm::poly {

/// Sturm chain of a polynomial: p0 = p, p1 = p', p_{k+1} = -rem(p_{k-1}, p_k).
class SturmSequence {
 public:
  /// Builds the chain. The input need not be square-free; root *counting*
  /// then reports distinct roots (the chain ends at gcd(p, p')).
  explicit SturmSequence(QPoly p);

  /// Number of sign changes of the chain at x.
  [[nodiscard]] int sign_changes_at(const util::Rational& x) const;
  /// Sign changes at -inf / +inf (using leading coefficients).
  [[nodiscard]] int sign_changes_at_negative_infinity() const;
  [[nodiscard]] int sign_changes_at_positive_infinity() const;

  /// Count of distinct real roots in the half-open interval (a, b].
  /// Requires a <= b (throws std::invalid_argument otherwise).
  [[nodiscard]] int count_roots(const util::Rational& a, const util::Rational& b) const;
  /// Count of all distinct real roots.
  [[nodiscard]] int count_all_roots() const;

  [[nodiscard]] const std::vector<QPoly>& chain() const noexcept { return chain_; }

 private:
  std::vector<QPoly> chain_;
};

}  // namespace ddm::poly
