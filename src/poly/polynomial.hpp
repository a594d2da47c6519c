// polynomial.hpp — dense univariate polynomials over a field.
//
// The optimality analysis of Sections 4 and 5 reduces to univariate
// polynomial algebra: the winning probability of a symmetric single-threshold
// protocol is a piecewise polynomial in the common threshold β, its critical
// points are roots of the derivative, and the paper's optimality conditions
// (e.g. β² − 2β + 6/7 = 0 for n = 3, t = 1) are exactly those derivatives.
// We instantiate the template with util::Rational for exact derivations and
// with double for fast plotting sweeps.
//
// Coefficients are stored low-degree first; the zero polynomial has an empty
// coefficient vector and degree() == -1.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/interval.hpp"
#include "util/rational.hpp"

namespace ddm::poly {

/// Dense univariate polynomial over field F (needs +, -, *, /, ==, F{0}, F{1}).
template <typename F>
class Polynomial {
 public:
  /// Zero polynomial.
  Polynomial() = default;
  /// Constant polynomial.
  explicit Polynomial(F constant) {
    coeffs_.push_back(std::move(constant));
    trim();
  }
  /// From coefficients, low-degree first.
  explicit Polynomial(std::vector<F> coefficients) : coeffs_(std::move(coefficients)) { trim(); }

  /// The monomial x.
  [[nodiscard]] static Polynomial x() { return Polynomial{std::vector<F>{F{}, F{1}}}; }
  /// The monomial c * x^k.
  [[nodiscard]] static Polynomial monomial(F coefficient, std::size_t k) {
    std::vector<F> coeffs(k + 1, F{});
    coeffs[k] = std::move(coefficient);
    return Polynomial{std::move(coeffs)};
  }

  /// Degree; -1 for the zero polynomial.
  [[nodiscard]] int degree() const noexcept { return static_cast<int>(coeffs_.size()) - 1; }
  [[nodiscard]] bool is_zero() const noexcept { return coeffs_.empty(); }
  /// Coefficient of x^k (F{} beyond the degree).
  [[nodiscard]] F coefficient(std::size_t k) const {
    return k < coeffs_.size() ? coeffs_[k] : F{};
  }
  [[nodiscard]] const std::vector<F>& coefficients() const noexcept { return coeffs_; }
  /// Leading coefficient; throws std::logic_error on the zero polynomial.
  [[nodiscard]] const F& leading_coefficient() const {
    if (is_zero()) throw std::logic_error("Polynomial: zero polynomial has no leading coefficient");
    return coeffs_.back();
  }

  /// Horner evaluation.
  [[nodiscard]] F operator()(const F& x) const {
    F result{};
    for (std::size_t i = coeffs_.size(); i-- > 0;) {
      result = result * x + coeffs_[i];
    }
    return result;
  }

  Polynomial& operator+=(const Polynomial& rhs) {
    if (coeffs_.size() < rhs.coeffs_.size()) coeffs_.resize(rhs.coeffs_.size(), F{});
    for (std::size_t i = 0; i < rhs.coeffs_.size(); ++i) coeffs_[i] += rhs.coeffs_[i];
    trim();
    return *this;
  }
  Polynomial& operator-=(const Polynomial& rhs) {
    if (coeffs_.size() < rhs.coeffs_.size()) coeffs_.resize(rhs.coeffs_.size(), F{});
    for (std::size_t i = 0; i < rhs.coeffs_.size(); ++i) coeffs_[i] -= rhs.coeffs_[i];
    trim();
    return *this;
  }
  Polynomial& operator*=(const Polynomial& rhs) {
    *this = *this * rhs;
    return *this;
  }

  friend Polynomial operator+(Polynomial lhs, const Polynomial& rhs) { return lhs += rhs; }
  friend Polynomial operator-(Polynomial lhs, const Polynomial& rhs) { return lhs -= rhs; }
  friend Polynomial operator*(const Polynomial& lhs, const Polynomial& rhs) {
    if (lhs.is_zero() || rhs.is_zero()) return Polynomial{};
    std::vector<F> out(lhs.coeffs_.size() + rhs.coeffs_.size() - 1, F{});
    for (std::size_t i = 0; i < lhs.coeffs_.size(); ++i) {
      for (std::size_t j = 0; j < rhs.coeffs_.size(); ++j) {
        out[i + j] += lhs.coeffs_[i] * rhs.coeffs_[j];
      }
    }
    return Polynomial{std::move(out)};
  }

  [[nodiscard]] Polynomial operator-() const {
    Polynomial result = *this;
    for (F& c : result.coeffs_) c = -c;
    return result;
  }

  /// Scale by a field element.
  Polynomial& operator*=(const F& scalar) {
    for (F& c : coeffs_) c *= scalar;
    trim();
    return *this;
  }
  friend Polynomial operator*(Polynomial lhs, const F& scalar) { return lhs *= scalar; }
  friend Polynomial operator*(const F& scalar, Polynomial rhs) { return rhs *= scalar; }
  Polynomial& operator/=(const F& scalar) {
    for (F& c : coeffs_) c /= scalar;
    trim();
    return *this;
  }

  friend bool operator==(const Polynomial& a, const Polynomial& b) = default;

  /// Formal derivative.
  [[nodiscard]] Polynomial derivative() const {
    if (coeffs_.size() <= 1) return Polynomial{};
    std::vector<F> out(coeffs_.size() - 1);
    for (std::size_t i = 1; i < coeffs_.size(); ++i) {
      out[i - 1] = coeffs_[i] * F(static_cast<std::int64_t>(i));
    }
    return Polynomial{std::move(out)};
  }

  /// Antiderivative with zero constant term (exact over a field of
  /// characteristic zero).
  [[nodiscard]] Polynomial antiderivative() const {
    if (is_zero()) return Polynomial{};
    std::vector<F> out(coeffs_.size() + 1, F{});
    for (std::size_t i = 0; i < coeffs_.size(); ++i) {
      out[i + 1] = coeffs_[i] / F(static_cast<std::int64_t>(i + 1));
    }
    return Polynomial{std::move(out)};
  }

  /// Composition: this(inner(x)).
  [[nodiscard]] Polynomial compose(const Polynomial& inner) const {
    Polynomial result;
    for (std::size_t i = coeffs_.size(); i-- > 0;) {
      result = result * inner + Polynomial{coeffs_[i]};
    }
    return result;
  }

  /// this^exponent by repeated squaring.
  [[nodiscard]] Polynomial pow(std::uint32_t exponent) const {
    Polynomial result{F{1}};
    Polynomial acc = *this;
    while (exponent != 0) {
      if (exponent & 1u) result = result * acc;
      exponent >>= 1u;
      if (exponent != 0) acc = acc * acc;
    }
    return result;
  }

  /// Euclidean division: returns {quotient, remainder} with
  /// deg(remainder) < deg(divisor). Throws std::domain_error if divisor is 0.
  [[nodiscard]] static std::pair<Polynomial, Polynomial> div_mod(Polynomial dividend,
                                                                 const Polynomial& divisor) {
    if (divisor.is_zero()) throw std::domain_error("Polynomial: division by zero polynomial");
    Polynomial quotient;
    const F& lead = divisor.leading_coefficient();
    while (!dividend.is_zero() && dividend.degree() >= divisor.degree()) {
      const std::size_t shift =
          static_cast<std::size_t>(dividend.degree() - divisor.degree());
      const F factor = dividend.leading_coefficient() / lead;
      quotient += monomial(factor, shift);
      dividend -= divisor * monomial(factor, shift);
    }
    return {std::move(quotient), std::move(dividend)};
  }

  /// Monic greatest common divisor (gcd of zero polynomials is zero).
  [[nodiscard]] static Polynomial gcd(Polynomial a, Polynomial b) {
    while (!b.is_zero()) {
      Polynomial r = div_mod(a, b).second;
      a = std::move(b);
      b = std::move(r);
    }
    if (!a.is_zero()) a /= a.leading_coefficient();
    return a;
  }

  /// Square-free part: this / gcd(this, this'). Root set is preserved,
  /// multiplicities collapse to one — the required input shape for Sturm
  /// root counting.
  [[nodiscard]] Polynomial square_free_part() const {
    if (is_zero() || degree() == 0) return *this;
    const Polynomial g = gcd(*this, derivative());
    if (g.degree() <= 0) return *this;
    return div_mod(*this, g).first;
  }

  /// Human-readable form, highest degree first, e.g. "7/2*x^3 - 21/2*x^2 + 9*x - 11/6".
  [[nodiscard]] std::string to_string(const std::string& var = "x") const;

 private:
  void trim() {
    while (!coeffs_.empty() && coeffs_.back() == F{}) coeffs_.pop_back();
  }

  std::vector<F> coeffs_;
};

using QPoly = Polynomial<util::Rational>;
using DPoly = Polynomial<double>;
/// Integer polynomials. Only the ring operations (+, −, ×, derivative,
/// compose, pow) are meaningful over the integers; division, gcd and
/// antiderivative need a field and stay on QPoly.
using ZPoly = Polynomial<util::BigInt>;

/// Convert an exact polynomial to its double-precision shadow.
[[nodiscard]] DPoly to_double(const QPoly& p);

/// Expand (a + b*x)^k exactly — the building block of every inclusion-
/// exclusion term like (t - lβ)^m in Theorems 4.1/5.1.
[[nodiscard]] QPoly binomial_power(const util::Rational& a, const util::Rational& b,
                                   std::uint32_t k);
/// The same over the integers.
[[nodiscard]] ZPoly binomial_power(const util::BigInt& a, const util::BigInt& b,
                                   std::uint32_t k);

/// The integer polynomial den·p, where den > 0 is the least common multiple
/// of p's coefficient denominators; `den` (when non-null) receives it. Roots
/// and signs of the result are those of p.
[[nodiscard]] ZPoly clear_denominators(const QPoly& p, util::BigInt* den = nullptr);

/// Sign (−1, 0, +1) of p(a/b) for b > 0, in integers: sign(Σ c_i a^i b^(d−i)).
/// a/b need not be in lowest terms.
[[nodiscard]] int sign_at(const ZPoly& p, const util::BigInt& a, const util::BigInt& b);
/// Sign of p(x).
[[nodiscard]] int sign_at(const ZPoly& p, const util::Rational& x);

/// Exact p(x) / den as one normalized rational (den > 0).
[[nodiscard]] util::Rational evaluate(const ZPoly& p, const util::BigInt& den,
                                      const util::Rational& x);

/// Interval extension of Horner evaluation: an enclosure of
/// { p(x) : x ∈ interval }, exact rational endpoints. (Horner's interval
/// form may overestimate, but never misses values — the basis for the
/// certified comparisons in PiecewisePolynomial::maximize.)
[[nodiscard]] util::RationalInterval evaluate_interval(const QPoly& p,
                                                       const util::RationalInterval& x);

extern template class Polynomial<util::Rational>;
extern template class Polynomial<double>;

}  // namespace ddm::poly
