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
