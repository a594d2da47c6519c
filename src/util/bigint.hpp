// bigint.hpp — arbitrary-precision signed integers.
//
// Exact integer arithmetic underpins the whole library: the paper's
// inclusion-exclusion formulas (Proposition 2.2, Theorems 4.1/5.1) and the
// optimality conditions of Section 5 are polynomial identities over the
// rationals, and Sturm-sequence root isolation (used to locate the optimal
// thresholds exactly) grows coefficients exponentially in the degree, far
// beyond what int64 or __int128 can hold.
//
// Representation: sign-magnitude, little-endian limbs in base 2^32.
// Invariant: no trailing zero limbs; zero is represented by an empty limb
// vector with non-negative sign.
#pragma once

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ddm::util {

/// Arbitrary-precision signed integer (value type, strongly exception-safe).
class BigInt {
 public:
  using Limb = std::uint32_t;
  using DoubleLimb = std::uint64_t;

  /// Zero.
  BigInt() = default;

  /// From a native signed integer.
  BigInt(std::int64_t value);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  /// From a decimal string, with optional leading '-' or '+'.
  /// Throws std::invalid_argument on malformed input (empty, non-digits).
  explicit BigInt(std::string_view decimal);

  // -- observers ------------------------------------------------------------

  /// True iff the value is zero.
  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  /// True iff the value is strictly negative.
  [[nodiscard]] bool is_negative() const noexcept { return negative_; }
  /// -1, 0, or +1.
  [[nodiscard]] int signum() const noexcept {
    return is_zero() ? 0 : (negative_ ? -1 : 1);
  }
  /// True iff the value is even.
  [[nodiscard]] bool is_even() const noexcept {
    return limbs_.empty() || (limbs_[0] & 1u) == 0;
  }

  /// Number of bits in the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;
  /// Number of trailing zero bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t trailing_zero_bits() const noexcept;

  /// True iff the value fits in int64_t.
  [[nodiscard]] bool fits_int64() const noexcept;
  /// Convert to int64_t; throws std::overflow_error if it does not fit.
  [[nodiscard]] std::int64_t to_int64() const;
  /// Convert to double (may lose precision; ±inf on overflow).
  [[nodiscard]] double to_double() const noexcept;
  /// Decimal representation with leading '-' when negative.
  [[nodiscard]] std::string to_string() const;

  // -- arithmetic -----------------------------------------------------------

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  /// Throws std::domain_error on division by zero.
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder of truncated division; sign follows the dividend.
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }

  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;

  /// Shift the magnitude left/right by `bits` (sign preserved; right shift
  /// truncates toward zero on the magnitude).
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);
  friend BigInt operator<<(BigInt lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, std::size_t bits) { return lhs >>= bits; }

  // -- comparison -----------------------------------------------------------

  friend bool operator==(const BigInt& a, const BigInt& b) noexcept {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) noexcept;

  // -- static helpers ---------------------------------------------------------

  /// Quotient and remainder in one division (truncated semantics).
  /// Throws std::domain_error when `divisor` is zero.
  [[nodiscard]] static std::pair<BigInt, BigInt> div_mod(const BigInt& dividend,
                                                         const BigInt& divisor);
  /// Non-negative greatest common divisor; gcd(0, 0) == 0.
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);
  /// `base` raised to `exponent` (exponent >= 0).
  [[nodiscard]] static BigInt pow(const BigInt& base, std::uint64_t exponent);
  /// Exact factorial n!.
  [[nodiscard]] static BigInt factorial(std::uint32_t n);

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

 private:
  // Magnitude comparison ignoring sign: -1, 0, +1.
  static int compare_magnitude(const std::vector<Limb>& a, const std::vector<Limb>& b) noexcept;
  // |a| + |b| -> result magnitude.
  static std::vector<Limb> add_magnitude(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // |a| - |b| assuming |a| >= |b|.
  static std::vector<Limb> sub_magnitude(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // Schoolbook product of magnitudes.
  static std::vector<Limb> mul_schoolbook(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // Karatsuba product (falls back to schoolbook below a threshold).
  static std::vector<Limb> mul_magnitude(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // Knuth Algorithm D on magnitudes; returns {quotient, remainder}.
  static std::pair<std::vector<Limb>, std::vector<Limb>> divmod_magnitude(
      const std::vector<Limb>& dividend, const std::vector<Limb>& divisor);
  // Drop trailing zero limbs and normalize the sign of zero.
  void trim() noexcept;

  std::vector<Limb> limbs_;
  bool negative_ = false;
};

/// Convenience literal-ish factory used in tests: BigInt from decimal text.
[[nodiscard]] inline BigInt big(std::string_view decimal) { return BigInt(decimal); }

}  // namespace ddm::util
