// Tests for Corollary 4.2 / Theorem 4.3 — oblivious optimality conditions.
#include "core/optimality.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/oblivious.hpp"
#include "prob/rng.hpp"

namespace ddm::core {
namespace {

using util::Rational;

TEST(ObliviousGradient, VanishesAtHalfForAllN) {
  // Theorem 4.3: α = (1/2, ..., 1/2) satisfies the optimality conditions of
  // Corollary 4.2 — every partial derivative is exactly zero.
  for (std::uint32_t n = 1; n <= 12; ++n) {
    const std::vector<Rational> half(n, Rational(1, 2));
    for (const Rational& t : {Rational{1}, Rational{static_cast<std::int64_t>(n), 3},
                              Rational(3, 2)}) {
      EXPECT_EQ(stationarity_residual(half, t), Rational{0}) << "n=" << n << " t=" << t;
    }
  }
}

TEST(ObliviousGradient, NonzeroAwayFromHalf) {
  // Lemma 4.6: 1/2 is the only interior stationary point; probes elsewhere
  // must have a nonzero gradient.
  for (std::uint32_t n = 2; n <= 8; ++n) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    for (const Rational& probe : {Rational(1, 3), Rational(2, 3), Rational(1, 4),
                                  Rational(9, 10)}) {
      const std::vector<Rational> alpha(n, probe);
      EXPECT_GT(stationarity_residual(alpha, t), Rational{0}) << "n=" << n << " a=" << probe;
    }
  }
}

TEST(ObliviousGradient, CollapseMatchesBruteforce) {
  const std::vector<Rational> alphas{Rational(1, 3), Rational(2, 5), Rational(1, 2),
                                     Rational(7, 9), Rational(1, 7)};
  for (std::size_t n = 1; n <= alphas.size(); ++n) {
    const std::span<const Rational> a{alphas.data(), n};
    for (int i = 1; i <= 5; ++i) {
      const Rational t{i, 3};
      const auto fast = oblivious_gradient(a, t);
      const auto slow = oblivious_gradient_bruteforce(a, t);
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t k = 0; k < fast.size(); ++k) {
        EXPECT_EQ(fast[k], slow[k]) << "n=" << n << " k=" << k << " t=" << t;
      }
    }
  }
}

TEST(ObliviousGradient, MatchesFiniteDifferences) {
  const std::vector<Rational> alpha{Rational(1, 3), Rational(3, 5), Rational(1, 2)};
  const Rational t{1};
  const Rational h{1, 1000000};
  const auto gradient = oblivious_gradient(alpha, t);
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    std::vector<Rational> up = alpha;
    std::vector<Rational> down = alpha;
    up[k] += h;
    down[k] -= h;
    const Rational numeric = (oblivious_winning_probability(up, t) -
                              oblivious_winning_probability(down, t)) /
                             (Rational{2} * h);
    // P is multilinear in α, so the central difference is exact.
    EXPECT_EQ(gradient[k], numeric) << k;
  }
}

TEST(ObliviousGradient, DoubleMatchesExact) {
  const std::vector<Rational> alpha{Rational(1, 4), Rational(2, 3), Rational(1, 2),
                                    Rational(4, 5)};
  std::vector<double> alpha_d;
  for (const Rational& a : alpha) alpha_d.push_back(a.to_double());
  const auto exact = oblivious_gradient(alpha, Rational(4, 3));
  const auto approx = oblivious_gradient(alpha_d, 4.0 / 3.0);
  ASSERT_EQ(exact.size(), approx.size());
  for (std::size_t k = 0; k < exact.size(); ++k) {
    EXPECT_NEAR(approx[k], exact[k].to_double(), 1e-12);
  }
}

TEST(ObliviousGradient, SymmetricAlphaGivesSymmetricGradient) {
  const std::vector<Rational> alpha(6, Rational(2, 7));
  const auto gradient = oblivious_gradient(alpha, Rational{2});
  for (std::size_t k = 1; k < gradient.size(); ++k) EXPECT_EQ(gradient[k], gradient[0]);
}

TEST(ObliviousGradient, ValidatesInput) {
  EXPECT_THROW((void)oblivious_gradient(std::vector<Rational>{}, Rational{1}),
               std::invalid_argument);
}

TEST(DiagonalCondition, AntisymmetricCoefficients) {
  // Lemma 4.4 ⇒ c_k = −c_{n−1−k}; for odd n the middle coefficient vanishes.
  for (std::uint32_t n = 2; n <= 12; ++n) {
    for (const Rational& t : {Rational{1}, Rational{static_cast<std::int64_t>(n), 3}}) {
      const auto c = diagonal_condition_coefficients(n, t);
      ASSERT_EQ(c.size(), n);
      for (std::uint32_t k = 0; k < n; ++k) {
        EXPECT_EQ(c[k], -c[n - 1 - k]) << "n=" << n << " k=" << k;
      }
      if (n % 2 == 1) {
        EXPECT_TRUE(c[(n - 1) / 2].is_zero());
      }
    }
  }
}

TEST(DiagonalCondition, RatioOneIsARoot) {
  // alpha = 1/2 ⇔ r = alpha/(1−alpha) = 1, and antisymmetry makes r = 1 a
  // root of Σ c_k r^k (the computational content of Theorem 4.3).
  for (std::uint32_t n = 2; n <= 10; ++n) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const auto c = diagonal_condition_coefficients(n, t);
    Rational sum{0};
    for (const Rational& coefficient : c) sum += coefficient;
    EXPECT_TRUE(sum.is_zero()) << "n=" << n;
  }
}

TEST(DiagonalCondition, MatchesGradientOnDiagonal) {
  // Σ c_k r^k at r = a/(1−a), times (1−a)^{n−1}, equals dP/dα_k at the
  // symmetric vector (any k by symmetry).
  for (std::uint32_t n = 2; n <= 7; ++n) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const auto c = diagonal_condition_coefficients(n, t);
    for (const Rational& a : {Rational(1, 3), Rational(3, 5), Rational(1, 4)}) {
      const Rational r = a / (Rational{1} - a);
      Rational series{0};
      Rational r_power{1};
      for (const Rational& coefficient : c) {
        series += coefficient * r_power;
        r_power *= r;
      }
      const Rational scaled =
          series * (Rational{1} - a).pow(static_cast<std::int64_t>(n - 1));
      const std::vector<Rational> alpha(n, a);
      EXPECT_EQ(scaled, oblivious_gradient(alpha, t)[0]) << "n=" << n << " a=" << a;
    }
  }
}

TEST(MaximizeOblivious, ConvergesToHalfFromVariousStarts) {
  // Independent numerical confirmation of Theorem 4.3.
  for (std::uint32_t n : {2u, 3u, 5u}) {
    const double t = static_cast<double>(n) / 3.0;
    for (const double start : {0.1, 0.35, 0.8}) {
      const AscentResult result = maximize_oblivious(std::vector<double>(n, start), t, 2000);
      for (const double a : result.alpha) EXPECT_NEAR(a, 0.5, 1e-4) << "n=" << n;
      EXPECT_LT(result.gradient_norm, 1e-6);
      EXPECT_NEAR(result.value, optimal_oblivious_winning_probability_double(n, t), 1e-9);
    }
  }
}

TEST(MaximizeOblivious, HeterogeneousStartReachesStationaryPointAtLeastAsGood) {
  // From an asymmetric start the ascent may legitimately leave the diagonal:
  // alpha = 1/2 is only a stationary point, and boundary corners (identity-
  // based splits) achieve strictly more. Require convergence to SOME
  // first-order point whose value is at least that of 1/2.
  std::vector<double> start{0.05, 0.9, 0.4, 0.7};
  const AscentResult result = maximize_oblivious(std::move(start), 4.0 / 3.0, 4000);
  EXPECT_LT(result.gradient_norm, 1e-6);
  EXPECT_GE(result.value,
            optimal_oblivious_winning_probability_double(4, 4.0 / 3.0) - 1e-12);
}

TEST(MaximizeOblivious, ClampsStartIntoUnitBox) {
  const AscentResult result = maximize_oblivious(std::vector<double>{-0.5, 1.5}, 1.0, 500);
  for (const double a : result.alpha) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(MaximizeOblivious, ValidatesInput) {
  EXPECT_THROW((void)maximize_oblivious(std::vector<double>{}, 1.0), std::invalid_argument);
}

TEST(MaximizeOblivious, NeverDecreasesValue) {
  const std::vector<double> start(4, 0.2);
  const double initial = oblivious_winning_probability(start, 1.5);
  const AscentResult result = maximize_oblivious(start, 1.5, 200);
  EXPECT_GE(result.value, initial);
}

}  // namespace
}  // namespace ddm::core
