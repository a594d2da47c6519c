// interval.hpp — exact rational interval arithmetic.
//
// Certification tool: the optimal thresholds of Section 5.2 are algebraic
// numbers known only through isolating intervals. To compare the winning
// probability at two such points *rigorously*, we evaluate the piece
// polynomials in interval arithmetic over the isolating intervals: if the
// value intervals are disjoint, the comparison is proven; if they overlap,
// the isolating intervals are refined and the evaluation repeated. Because
// endpoints are exact rationals there is no rounding anywhere. Every
// certified result (util/certify.hpp) is such an interval.
#pragma once

#include <iosfwd>
#include <string>

#include "util/rational.hpp"

namespace ddm::util {

/// Closed interval [lo, hi] with exact rational endpoints.
class RationalInterval {
 public:
  /// Degenerate interval [v, v].
  explicit RationalInterval(Rational value) : lo_(value), hi_(std::move(value)) {}
  /// [lo, hi]; throws std::invalid_argument when lo > hi.
  RationalInterval(Rational lo, Rational hi);

  [[nodiscard]] const Rational& lo() const noexcept { return lo_; }
  [[nodiscard]] const Rational& hi() const noexcept { return hi_; }
  [[nodiscard]] Rational width() const { return hi_ - lo_; }
  [[nodiscard]] Rational midpoint() const { return (lo_ + hi_) * Rational{1, 2}; }
  [[nodiscard]] bool is_point() const noexcept { return lo_ == hi_; }
  [[nodiscard]] bool contains(const Rational& x) const { return lo_ <= x && x <= hi_; }
  [[nodiscard]] bool contains_zero() const {
    return lo_.signum() <= 0 && hi_.signum() >= 0;
  }

  RationalInterval& operator+=(const RationalInterval& rhs);
  RationalInterval& operator-=(const RationalInterval& rhs);
  RationalInterval& operator*=(const RationalInterval& rhs);

  friend RationalInterval operator+(RationalInterval lhs, const RationalInterval& rhs) {
    return lhs += rhs;
  }
  friend RationalInterval operator-(RationalInterval lhs, const RationalInterval& rhs) {
    return lhs -= rhs;
  }
  friend RationalInterval operator*(RationalInterval lhs, const RationalInterval& rhs) {
    return lhs *= rhs;
  }
  [[nodiscard]] RationalInterval operator-() const { return {-hi_, -lo_}; }

  /// Certified order: true iff every point of *this is strictly below every
  /// point of other (hi < other.lo).
  [[nodiscard]] bool certainly_less_than(const RationalInterval& other) const {
    return hi_ < other.lo_;
  }
  /// True iff the two intervals share at least one point.
  [[nodiscard]] bool overlaps(const RationalInterval& other) const {
    return !(hi_ < other.lo_ || other.hi_ < lo_);
  }

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const RationalInterval& interval);

  friend bool operator==(const RationalInterval& a, const RationalInterval& b) = default;

 private:
  Rational lo_;
  Rational hi_;
};

}  // namespace ddm::util
