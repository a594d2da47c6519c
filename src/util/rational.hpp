// rational.hpp — exact rational arithmetic over BigInt.
//
// All of the paper's formulas (Proposition 2.2, Theorems 4.1 and 5.1, the
// optimality conditions of Corollary 4.2 / Theorem 5.2) are rational-valued
// for rational parameters; computing them exactly removes any numerical
// doubt from the reproduction. Invariant: denominator > 0, gcd(num, den) = 1,
// and zero is 0/1.
#pragma once

#include <compare>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bigint.hpp"

namespace ddm::util {

/// Exact rational number (value type). Always kept in lowest terms with a
/// positive denominator.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value.
  Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT: literal ergonomics
  /// num / den; throws std::domain_error if den == 0.
  Rational(BigInt num, BigInt den);
  /// num / den from native integers.
  Rational(std::int64_t num, std::int64_t den) : Rational(BigInt{num}, BigInt{den}) {}
  /// Parse "a/b" or "a"; throws std::invalid_argument on malformed input.
  static Rational parse(std::string_view text);
  /// The EXACT value of a double (every finite double is a dyadic rational
  /// m·2^e). Basis of the compiled-plan error certificates (poly/compiled.hpp):
  /// rounding errors |c − double(c)| become exact rationals. Throws
  /// std::invalid_argument on NaN/infinity.
  static Rational from_double(double value);

  [[nodiscard]] const BigInt& num() const noexcept { return num_; }
  [[nodiscard]] const BigInt& den() const noexcept { return den_; }

  [[nodiscard]] bool is_zero() const noexcept { return num_.is_zero(); }
  [[nodiscard]] bool is_integer() const noexcept { return den_ == BigInt{1}; }
  [[nodiscard]] int signum() const noexcept { return num_.signum(); }

  [[nodiscard]] double to_double() const noexcept;
  /// "a/b", or just "a" when the denominator is 1.
  [[nodiscard]] std::string to_string() const;

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  /// Throws std::domain_error when rhs is zero.
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational abs() const;
  /// Multiplicative inverse; throws std::domain_error on zero.
  [[nodiscard]] Rational inverse() const;
  /// this^exponent for any integer exponent (negative inverts; 0^negative throws).
  [[nodiscard]] Rational pow(std::int64_t exponent) const;

  /// Largest integer <= value / smallest integer >= value.
  [[nodiscard]] BigInt floor() const;
  [[nodiscard]] BigInt ceil() const;

  friend bool operator==(const Rational& a, const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b) noexcept;

  friend std::ostream& operator<<(std::ostream& os, const Rational& value);

 private:
  void normalize();

  BigInt num_;
  BigInt den_;
};

/// Rationals written over one common denominator: value i equals
/// numerators[i] / denominator, and denominator > 0 is the least such.
struct CommonDenominator {
  BigInt denominator{1};
  std::vector<BigInt> numerators;
};

/// Puts `values` over their least common denominator. The exact
/// inclusion–exclusion sums (Proposition 2.2, Theorem 5.1) add integer terms
/// over it and build one Rational at the end.
[[nodiscard]] CommonDenominator common_denominator(std::span<const Rational> values);

/// Convenience factory: r(a, b) == a/b.
[[nodiscard]] inline Rational rat(std::int64_t num, std::int64_t den = 1) {
  return Rational{num, den};
}

}  // namespace ddm::util
