#include "util/interval.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace ddm::util {

RationalInterval::RationalInterval(Rational lo, Rational hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  if (lo_ > hi_) throw std::invalid_argument("RationalInterval: lo > hi");
}

RationalInterval& RationalInterval::operator+=(const RationalInterval& rhs) {
  lo_ += rhs.lo_;
  hi_ += rhs.hi_;
  return *this;
}

RationalInterval& RationalInterval::operator-=(const RationalInterval& rhs) {
  const Rational new_lo = lo_ - rhs.hi_;
  hi_ -= rhs.lo_;
  lo_ = new_lo;
  return *this;
}

RationalInterval& RationalInterval::operator*=(const RationalInterval& rhs) {
  const Rational a = lo_ * rhs.lo_;
  const Rational b = lo_ * rhs.hi_;
  const Rational c = hi_ * rhs.lo_;
  const Rational d = hi_ * rhs.hi_;
  lo_ = std::min(std::min(a, b), std::min(c, d));
  hi_ = std::max(std::max(a, b), std::max(c, d));
  return *this;
}

namespace {

// Largest multiple of 2^-bits that is <= v (round_up = false), or smallest
// multiple >= v (round_up = true).
Rational round_dyadic(const Rational& v, unsigned bits, bool round_up) {
  const Rational scaled{v.num() << bits, v.den()};
  const BigInt quantized = round_up ? scaled.ceil() : scaled.floor();
  return Rational{quantized, BigInt{1} << bits};
}

}  // namespace

RationalInterval outward_round(const RationalInterval& x, unsigned bits) {
  return RationalInterval{round_dyadic(x.lo(), bits, /*round_up=*/false),
                          round_dyadic(x.hi(), bits, /*round_up=*/true)};
}

RationalInterval pow_outward(const RationalInterval& x, std::uint32_t exp, unsigned bits) {
  RationalInterval result{Rational{1}};
  RationalInterval base = outward_round(x, bits);
  while (exp != 0) {
    if (exp & 1u) result = outward_round(result * base, bits);
    exp >>= 1;
    if (exp != 0) base = outward_round(base * base, bits);
  }
  return result;
}

std::string RationalInterval::to_string() const {
  std::string text = "[";
  text += lo_.to_string();
  text += ", ";
  text += hi_.to_string();
  text += ']';
  return text;
}

std::ostream& operator<<(std::ostream& os, const RationalInterval& interval) {
  return os << interval.to_string();
}

}  // namespace ddm::util
