#include "util/rational.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace ddm::util {

Rational::Rational(BigInt num, BigInt den) : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
  normalize();
}

Rational Rational::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational{BigInt{text}, BigInt{1}};
  return Rational{BigInt{text.substr(0, slash)}, BigInt{text.substr(slash + 1)}};
}

Rational Rational::from_double(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Rational::from_double: value is not finite");
  }
  if (value == 0.0) return Rational{};
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = mantissa · 2^exponent
  // Scale the mantissa to a 53-bit integer; the pair (scaled, exponent − 53)
  // represents the double exactly (subnormals included — frexp normalizes).
  const auto scaled = static_cast<std::int64_t>(std::ldexp(mantissa, 53));
  exponent -= 53;
  if (exponent >= 0) {
    return Rational{BigInt{scaled} * BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(exponent)),
                    BigInt{1}};
  }
  return Rational{BigInt{scaled}, BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(-exponent))};
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt{1};
    return;
  }
  const BigInt g = BigInt::gcd(num_, den_);
  if (g != BigInt{1}) {
    num_ /= g;
    den_ /= g;
  }
}

double Rational::to_double() const noexcept {
  const std::size_t nb = num_.bit_length();
  const std::size_t db = den_.bit_length();
  if (nb < 900 && db < 900) return num_.to_double() / den_.to_double();
  // Extreme magnitudes: shift each part to its own top 64 bits (each then
  // converts with one rounding), divide, and scale the quotient back by the
  // difference of the two shifts. Overflow gives +-inf; underflow gives a
  // scaled subnormal or 0.
  const std::size_t num_drop = nb > 64 ? nb - 64 : 0;
  const std::size_t den_drop = db > 64 ? db - 64 : 0;
  const double quotient = (num_ >> num_drop).to_double() / (den_ >> den_drop).to_double();
  return std::ldexp(quotient, static_cast<int>(num_drop) - static_cast<int>(den_drop));
}

std::string Rational::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

Rational& Rational::operator+=(const Rational& rhs) {
  num_ = num_ * rhs.den_ + rhs.num_ * den_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  num_ = num_ * rhs.den_ - rhs.num_ * den_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  num_ *= rhs.num_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  if (rhs.is_zero()) throw std::domain_error("Rational: division by zero");
  // Evaluate both products before writing: `rhs` may alias *this (e.g.
  // dividing a polynomial by its own leading coefficient).
  BigInt new_num = num_ * rhs.den_;
  BigInt new_den = den_ * rhs.num_;
  num_ = std::move(new_num);
  den_ = std::move(new_den);
  normalize();
  return *this;
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.num_ = -result.num_;
  return result;
}

Rational Rational::abs() const {
  Rational result = *this;
  result.num_ = result.num_.abs();
  return result;
}

Rational Rational::inverse() const {
  if (is_zero()) throw std::domain_error("Rational: inverse of zero");
  return Rational{den_, num_};
}

Rational Rational::pow(std::int64_t exponent) const {
  if (exponent < 0) return inverse().pow(-exponent);
  return Rational{BigInt::pow(num_, static_cast<std::uint64_t>(exponent)),
                  BigInt::pow(den_, static_cast<std::uint64_t>(exponent))};
}

BigInt Rational::floor() const {
  auto [q, r] = BigInt::div_mod(num_, den_);
  if (r.is_zero() || !num_.is_negative()) return q;
  return q - BigInt{1};
}

BigInt Rational::ceil() const {
  auto [q, r] = BigInt::div_mod(num_, den_);
  if (r.is_zero() || num_.is_negative()) return q;
  return q + BigInt{1};
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) noexcept {
  // Compare a.num * b.den <=> b.num * a.den (denominators positive).
  return (a.num_ * b.den_) <=> (b.num_ * a.den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.to_string();
}

CommonDenominator common_denominator(std::span<const Rational> values) {
  CommonDenominator common;
  for (const Rational& value : values) {
    common.denominator *= value.den() / BigInt::gcd(common.denominator, value.den());
  }
  common.numerators.reserve(values.size());
  for (const Rational& value : values) {
    common.numerators.push_back(value.num() * (common.denominator / value.den()));
  }
  return common;
}

}  // namespace ddm::util
