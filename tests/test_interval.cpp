// Tests for exact rational interval arithmetic and the interval Horner
// evaluation behind the certified maximizer.
#include "util/interval.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "poly/polynomial.hpp"

namespace ddm::util {
namespace {

RationalInterval iv(std::int64_t lo_num, std::int64_t lo_den, std::int64_t hi_num,
                    std::int64_t hi_den) {
  return RationalInterval{Rational{lo_num, lo_den}, Rational{hi_num, hi_den}};
}

TEST(Interval, ConstructionAndAccessors) {
  const RationalInterval point{Rational(1, 2)};
  EXPECT_TRUE(point.is_point());
  EXPECT_EQ(point.width(), Rational{0});
  EXPECT_EQ(point.midpoint(), Rational(1, 2));

  const RationalInterval range = iv(1, 3, 2, 3);
  EXPECT_FALSE(range.is_point());
  EXPECT_EQ(range.width(), Rational(1, 3));
  EXPECT_EQ(range.midpoint(), Rational(1, 2));
  EXPECT_TRUE(range.contains(Rational(1, 2)));
  EXPECT_FALSE(range.contains(Rational(1, 4)));

  EXPECT_THROW(RationalInterval(Rational{1}, Rational{0}), std::invalid_argument);
}

TEST(Interval, ContainsZero) {
  EXPECT_TRUE(iv(-1, 2, 1, 2).contains_zero());
  EXPECT_TRUE(iv(0, 1, 1, 1).contains_zero());
  EXPECT_FALSE(iv(1, 4, 1, 2).contains_zero());
  EXPECT_FALSE(iv(-1, 2, -1, 4).contains_zero());
}

TEST(Interval, Addition) {
  EXPECT_EQ(iv(0, 1, 1, 1) + iv(1, 2, 3, 2), iv(1, 2, 5, 2));
}

TEST(Interval, SubtractionIsConservative) {
  // [0,1] − [0,1] = [−1, 1] (dependency is not tracked — by design).
  EXPECT_EQ(iv(0, 1, 1, 1) - iv(0, 1, 1, 1), iv(-1, 1, 1, 1));
}

TEST(Interval, MultiplicationSignCases) {
  EXPECT_EQ(iv(1, 1, 2, 1) * iv(3, 1, 4, 1), iv(3, 1, 8, 1));       // + * +
  EXPECT_EQ(iv(-2, 1, -1, 1) * iv(3, 1, 4, 1), iv(-8, 1, -3, 1));   // − * +
  EXPECT_EQ(iv(-2, 1, 3, 1) * iv(-1, 1, 4, 1), iv(-8, 1, 12, 1));   // mixed
  EXPECT_EQ(iv(-2, 1, -1, 1) * iv(-4, 1, -3, 1), iv(3, 1, 8, 1));   // − * −
}

TEST(Interval, Negation) { EXPECT_EQ(-iv(-1, 2, 3, 4), iv(-3, 4, 1, 2)); }

TEST(Interval, OrderingPredicates) {
  EXPECT_TRUE(iv(0, 1, 1, 2).certainly_less_than(iv(3, 4, 1, 1)));
  EXPECT_FALSE(iv(0, 1, 1, 2).certainly_less_than(iv(1, 2, 1, 1)));  // touching
  EXPECT_TRUE(iv(0, 1, 1, 2).overlaps(iv(1, 2, 1, 1)));
  EXPECT_FALSE(iv(0, 1, 1, 4).overlaps(iv(1, 2, 1, 1)));
}

TEST(Interval, InclusionPropertyUnderArithmetic) {
  // Fundamental soundness: x ∈ X, y ∈ Y ⇒ x∘y ∈ X∘Y.
  const RationalInterval x = iv(-1, 3, 1, 2);
  const RationalInterval y = iv(1, 5, 4, 5);
  for (int i = 0; i <= 4; ++i) {
    for (int j = 0; j <= 4; ++j) {
      const Rational px = x.lo() + x.width() * Rational{i, 4};
      const Rational py = y.lo() + y.width() * Rational{j, 4};
      EXPECT_TRUE((x + y).contains(px + py));
      EXPECT_TRUE((x - y).contains(px - py));
      EXPECT_TRUE((x * y).contains(px * py));
    }
  }
}

TEST(Interval, StreamAndToString) {
  std::ostringstream oss;
  oss << iv(1, 2, 3, 4);
  EXPECT_EQ(oss.str(), "[1/2, 3/4]");
}

TEST(IntervalHorner, EnclosesRangeOfPolynomial) {
  // p(x) = x² − x on [0, 1]: true range [−1/4, 0]; the interval extension
  // must enclose it (it may be wider).
  const poly::QPoly p{std::vector<Rational>{Rational{0}, Rational{-1}, Rational{1}}};
  const RationalInterval enclosure =
      poly::evaluate_interval(p, iv(0, 1, 1, 1));
  EXPECT_LE(enclosure.lo(), Rational(-1, 4));
  EXPECT_GE(enclosure.hi(), Rational{0});
  // Sampled values are inside.
  for (int i = 0; i <= 8; ++i) {
    EXPECT_TRUE(enclosure.contains(p(Rational{i, 8})));
  }
}

TEST(IntervalHorner, PointIntervalIsExact) {
  const poly::QPoly p{std::vector<Rational>{Rational(-11, 6), Rational{9}, Rational(-21, 2),
                                            Rational(7, 2)}};
  const Rational x{5, 8};
  const RationalInterval result = poly::evaluate_interval(p, RationalInterval{x});
  EXPECT_TRUE(result.is_point());
  EXPECT_EQ(result.lo(), p(x));
}

TEST(IntervalHorner, ShrinksWithInputWidth) {
  const poly::QPoly p{std::vector<Rational>{Rational{1}, Rational{-3}, Rational{2},
                                            Rational{5}}};
  Rational previous_width{-1};
  bool first = true;
  for (int k = 1; k <= 6; ++k) {
    const Rational half_width{1, 1 << (2 * k)};
    const RationalInterval x{Rational(1, 2) - half_width, Rational(1, 2) + half_width};
    const Rational width = poly::evaluate_interval(p, x).width();
    if (!first) {
      EXPECT_LT(width, previous_width);
    }
    previous_width = width;
    first = false;
  }
}

}  // namespace
}  // namespace ddm::util
