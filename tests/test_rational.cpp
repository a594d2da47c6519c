// Tests for util::Rational — exact rational arithmetic.
#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "util/certify.hpp"

namespace ddm::util {
namespace {

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.to_string(), "0");
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, NormalizationLowestTerms) {
  EXPECT_EQ(Rational(6, 8).to_string(), "3/4");
  EXPECT_EQ(Rational(8, 4).to_string(), "2");
  EXPECT_EQ(Rational(0, 7).to_string(), "0");
}

TEST(Rational, NormalizationSign) {
  EXPECT_EQ(Rational(1, -2).to_string(), "-1/2");
  EXPECT_EQ(Rational(-1, -2).to_string(), "1/2");
  EXPECT_EQ(Rational(-1, 2).to_string(), "-1/2");
  EXPECT_GT(Rational(1, -2).den(), BigInt{0});
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, Parse) {
  EXPECT_EQ(Rational::parse("3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::parse("-3/4"), Rational(-3, 4));
  EXPECT_EQ(Rational::parse("42"), Rational{42});
  EXPECT_EQ(Rational::parse("4318/1215").to_string(), "4318/1215");
  EXPECT_THROW(Rational::parse("a/b"), std::invalid_argument);
  EXPECT_THROW(Rational::parse("1/0"), std::domain_error);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational{2});
  EXPECT_EQ(Rational(1, 3) + Rational(2, 3), Rational{1});
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational{1} / Rational{0}, std::domain_error);
  EXPECT_THROW(Rational{0}.inverse(), std::domain_error);
}

TEST(Rational, PaperCoefficientsArithmetic) {
  // The n = 3, t = 1 case analysis: the two pieces must agree at β = 1/2.
  // Piece A: 1/6 + (3/2)β² − (1/2)β³ ; Piece B: −11/6 + 9β − (21/2)β² + (7/2)β³.
  const Rational beta{1, 2};
  const Rational a = Rational(1, 6) + Rational(3, 2) * beta.pow(2) - Rational(1, 2) * beta.pow(3);
  const Rational b = Rational(-11, 6) + Rational{9} * beta - Rational(21, 2) * beta.pow(2) +
                     Rational(7, 2) * beta.pow(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, Rational(23, 48));
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1, 2), Rational{0});
  EXPECT_GT(Rational(2, 3), Rational(1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LE(Rational(1, 2), Rational(1, 2));
}

TEST(Rational, Negation) {
  EXPECT_EQ((-Rational(1, 2)).to_string(), "-1/2");
  EXPECT_EQ((-Rational{0}).to_string(), "0");
}

TEST(Rational, AbsAndSignum) {
  EXPECT_EQ(Rational(-3, 4).abs(), Rational(3, 4));
  EXPECT_EQ(Rational(-3, 4).signum(), -1);
  EXPECT_EQ(Rational(3, 4).signum(), 1);
  EXPECT_EQ(Rational{0}.signum(), 0);
}

TEST(Rational, Inverse) {
  EXPECT_EQ(Rational(3, 4).inverse(), Rational(4, 3));
  EXPECT_EQ(Rational(-3, 4).inverse(), Rational(-4, 3));
}

TEST(Rational, Pow) {
  EXPECT_EQ(Rational(2, 3).pow(3), Rational(8, 27));
  EXPECT_EQ(Rational(2, 3).pow(0), Rational{1});
  EXPECT_EQ(Rational(2, 3).pow(-2), Rational(9, 4));
  EXPECT_EQ(Rational{0}.pow(0), Rational{1});  // 0^0 == 1 convention
  EXPECT_EQ(Rational{0}.pow(3), Rational{0});
  EXPECT_THROW(Rational{0}.pow(-1), std::domain_error);
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor().to_string(), "3");
  EXPECT_EQ(Rational(7, 2).ceil().to_string(), "4");
  EXPECT_EQ(Rational(-7, 2).floor().to_string(), "-4");
  EXPECT_EQ(Rational(-7, 2).ceil().to_string(), "-3");
  EXPECT_EQ(Rational{5}.floor().to_string(), "5");
  EXPECT_EQ(Rational{5}.ceil().to_string(), "5");
  EXPECT_EQ(Rational{-5}.floor().to_string(), "-5");
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 4).to_double(), -0.25);
  EXPECT_NEAR(Rational(1, 3).to_double(), 1.0 / 3.0, 1e-15);
  // Huge numerator/denominator pair still produces a finite sensible value.
  const Rational big{BigInt::pow(BigInt{7}, 500), BigInt::pow(BigInt{7}, 500) * BigInt{2}};
  EXPECT_DOUBLE_EQ(big.to_double(), 0.5);
}

/// Distance from `x` to `reference` in units of reference's ulp.
double ulps(double x, double reference) {
  const double ulp =
      std::nextafter(reference, std::numeric_limits<double>::infinity()) - reference;
  return std::fabs(x - reference) / ulp;
}

TEST(Rational, ToDoubleKeepsMagnitudeAtTheExtremes) {
  // One part far past the 900-bit fast path, the other tiny: each part is
  // scaled on its own, so neither collapses to 0.
  const BigInt ten300 = BigInt::pow(BigInt{10}, 300);
  EXPECT_LE(ulps(Rational(ten300, BigInt{1}).to_double(), 1e300), 1.0);
  EXPECT_LE(ulps(Rational(BigInt{1}, ten300).to_double(), 1e-300), 1.0);
  EXPECT_LE(ulps(Rational(-ten300, BigInt{1}).to_double(), -1e300), 1.0);
  EXPECT_DOUBLE_EQ(Rational(ten300 * BigInt{3}, ten300 * BigInt{7}).to_double(), 3.0 / 7.0);
  // Powers of two are exact; past the double range the value overflows to
  // +inf, below it a power of two lands on its exact subnormal.
  EXPECT_EQ(Rational(BigInt::pow(BigInt{2}, 1000), BigInt{1}).to_double(), std::ldexp(1.0, 1000));
  EXPECT_EQ(Rational(BigInt{1}, BigInt::pow(BigInt{2}, 1000)).to_double(), std::ldexp(1.0, -1000));
  EXPECT_EQ(Rational(BigInt::pow(BigInt{2}, 1100), BigInt{1}).to_double(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Rational(BigInt{1}, BigInt::pow(BigInt{2}, 1060)).to_double(), std::ldexp(1.0, -1060));
}

TEST(Rational, RoundUpAtTheExtremesIsTheNextDouble) {
  // util::round_up starts from to_double and steps upward; a collapsed
  // start would walk ~2^62 ulps. It must return the smallest double >= r.
  const BigInt ten300 = BigInt::pow(BigInt{10}, 300);
  for (const Rational& r : {Rational(ten300, BigInt{1}), Rational(BigInt{1}, ten300)}) {
    const double up = round_up(r);
    EXPECT_TRUE(exact_rational(up) >= r) << r.to_double();
    const double below = std::nextafter(up, -std::numeric_limits<double>::infinity());
    EXPECT_TRUE(exact_rational(below) < r) << r.to_double();
  }
}

TEST(Rational, FieldAxiomsRandomized) {
  std::mt19937_64 gen{99};
  const auto random_rational = [&gen] {
    const std::int64_t num = static_cast<std::int64_t>(gen() % 2001) - 1000;
    const std::int64_t den = 1 + static_cast<std::int64_t>(gen() % 1000);
    return Rational{num, den};
  };
  for (int iter = 0; iter < 200; ++iter) {
    const Rational a = random_rational();
    const Rational b = random_rational();
    const Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational{0});
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Rational{1});
    }
  }
}

TEST(Rational, SelfAliasedOperations) {
  // Regression: dividing by a reference into the object itself (e.g. a
  // polynomial normalizing by its own leading coefficient) must not read
  // partially updated state.
  Rational a{-2, 9};
  const Rational& self = a;
  a /= self;
  EXPECT_EQ(a, Rational{1});
  Rational b{3, 4};
  b *= b;
  EXPECT_EQ(b, Rational(9, 16));
  Rational c{5, 7};
  c -= c;
  EXPECT_TRUE(c.is_zero());
  Rational d{5, 7};
  d += d;
  EXPECT_EQ(d, Rational(10, 7));
}

TEST(Rational, StreamOutput) {
  std::ostringstream oss;
  oss << Rational(-22, 7);
  EXPECT_EQ(oss.str(), "-22/7");
}

TEST(Rational, RatHelper) {
  EXPECT_EQ(rat(3, 4), Rational(3, 4));
  EXPECT_EQ(rat(5), Rational{5});
}

TEST(Rational, FromDoubleIsExact) {
  EXPECT_EQ(Rational::from_double(0.0), Rational{});
  EXPECT_EQ(Rational::from_double(1.0), Rational{1});
  EXPECT_EQ(Rational::from_double(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(-0.75), Rational(-3, 4));
  // 0.1 is NOT 1/10: the conversion must produce the dyadic the double
  // actually holds.
  EXPECT_EQ(Rational::from_double(0.1),
            Rational(BigInt{std::int64_t{3602879701896397}},
                     BigInt::pow(BigInt{2}, 55)));
  EXPECT_NE(Rational::from_double(0.1), Rational(1, 10));
  // Round-trip: every finite double is a dyadic rational, so converting back
  // must be lossless.
  std::mt19937_64 rng{31337};
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int k = 0; k < 200; ++k) {
    const double x = dist(rng);
    EXPECT_EQ(Rational::from_double(x).to_double(), x);
  }
  // Subnormal: the conversion itself stays exact (to_double underflows for
  // magnitudes this small, so compare the rational, not a round-trip).
  EXPECT_EQ(Rational::from_double(std::ldexp(1.0, -1060)),
            Rational(BigInt{1}, BigInt::pow(BigInt{2}, 1060)));
  EXPECT_THROW((void)Rational::from_double(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)Rational::from_double(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddm::util
