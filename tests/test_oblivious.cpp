// Tests for Theorem 4.1 / Theorem 4.3 — oblivious winning probabilities.
#include "core/oblivious.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/protocol.hpp"
#include "prob/uniform_sum.hpp"
#include "prob/rng.hpp"
#include "sim/monte_carlo.hpp"

namespace ddm::core {
namespace {

using util::Rational;

TEST(Phi, Lemma44Symmetry) {
  // φ_t(|b|) = φ_t(n − |b|) for every n, k, t (Lemma 4.4).
  for (std::uint32_t n = 1; n <= 10; ++n) {
    for (std::uint32_t k = 0; k <= n; ++k) {
      for (int i = 1; i <= 8; ++i) {
        const Rational t{i, 3};
        EXPECT_EQ(phi(n, k, t), phi(n, n - k, t)) << n << " " << k << " " << t;
      }
    }
  }
}

TEST(Phi, KnownValues) {
  // n = 3, t = 1: φ(0) = IH_0(1)·IH_3(1) = 1/6; φ(1) = 1 · 1/2 = 1/2.
  EXPECT_EQ(phi(3, 0, Rational{1}), Rational(1, 6));
  EXPECT_EQ(phi(3, 1, Rational{1}), Rational(1, 2));
  EXPECT_EQ(phi(3, 2, Rational{1}), Rational(1, 2));
  EXPECT_EQ(phi(3, 3, Rational{1}), Rational(1, 6));
  EXPECT_THROW((void)phi(3, 4, Rational{1}), std::invalid_argument);
}

TEST(Phi, MonotoneTowardBalancedSplit) {
  // Balanced splits have (weakly) higher no-overflow probability.
  const Rational t{2};
  for (std::uint32_t n = 2; n <= 9; ++n) {
    for (std::uint32_t k = 0; k + 1 <= n / 2; ++k) {
      EXPECT_LE(phi(n, k, t), phi(n, k + 1, t)) << n << " " << k;
    }
  }
}

TEST(OnesCountDistribution, MatchesBinomialForEqualAlpha) {
  const std::vector<Rational> alpha(4, Rational(1, 3));
  const std::vector<Rational> pmf = ones_count_distribution(alpha);
  ASSERT_EQ(pmf.size(), 5u);
  // #ones ~ Binomial(4, 2/3).
  Rational total{0};
  for (std::uint32_t k = 0; k <= 4; ++k) {
    total += pmf[k];
  }
  EXPECT_EQ(total, Rational{1});
  EXPECT_EQ(pmf[0], Rational(1, 81));
  EXPECT_EQ(pmf[4], Rational(16, 81));
  EXPECT_EQ(pmf[2], Rational{6} * Rational(1, 9) * Rational(4, 9));
}

TEST(OnesCountDistribution, DegenerateAlpha) {
  const std::vector<Rational> alpha{Rational{1}, Rational{0}, Rational{1}};
  const std::vector<Rational> pmf = ones_count_distribution(alpha);
  // Exactly one player (the α = 0 one) picks bin 1.
  EXPECT_EQ(pmf[1], Rational{1});
  EXPECT_EQ(pmf[0], Rational{0});
  EXPECT_EQ(pmf[2], Rational{0});
}

TEST(ObliviousWinning, OptimalN3T1IsFiveTwelfths) {
  // P at α = 1/2, n = 3, t = 1: (1/8)(1/6 + 3·1/2 + 3·1/2 + 1/6) = 5/12.
  EXPECT_EQ(optimal_oblivious_winning_probability(3, Rational{1}), Rational(5, 12));
  const std::vector<Rational> alpha(3, Rational(1, 2));
  EXPECT_EQ(oblivious_winning_probability(alpha, Rational{1}), Rational(5, 12));
}

TEST(ObliviousWinning, DpMatchesBruteforce) {
  // Random-ish heterogeneous alphas across several n and t.
  const std::vector<Rational> alphas{Rational(1, 3), Rational(2, 5), Rational(1, 2),
                                     Rational(7, 9), Rational(1, 7), Rational(9, 10)};
  for (std::size_t n = 1; n <= alphas.size(); ++n) {
    const std::span<const Rational> a{alphas.data(), n};
    for (int i = 1; i <= 6; ++i) {
      const Rational t{i, 3};
      EXPECT_EQ(oblivious_winning_probability(a, t),
                oblivious_winning_probability_bruteforce(a, t))
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(ObliviousWinning, DeterministicAllZeroEqualsIrwinHall) {
  // α = 1 for everyone → all inputs land in bin 0: P = IH_n(t).
  for (std::uint32_t n = 1; n <= 6; ++n) {
    const std::vector<Rational> alpha(n, Rational{1});
    for (int i = 1; i <= 8; ++i) {
      const Rational t{i, 2};
      EXPECT_EQ(oblivious_winning_probability(alpha, t), prob::irwin_hall_cdf(n, t));
    }
  }
}

TEST(ObliviousWinning, InvariantUnderAlphaComplement) {
  // Swapping bins (α → 1 − α) leaves the winning probability unchanged.
  const std::vector<Rational> alpha{Rational(1, 5), Rational(3, 4), Rational(2, 3)};
  std::vector<Rational> complement;
  for (const Rational& a : alpha) complement.push_back(Rational{1} - a);
  for (int i = 1; i <= 8; ++i) {
    const Rational t{i, 4};
    EXPECT_EQ(oblivious_winning_probability(alpha, t),
              oblivious_winning_probability(complement, t));
  }
}

TEST(ObliviousWinning, UniformIsBestAmongSymmetricProbes) {
  // Theorem 4.3 read precisely: among protocols where every player uses the
  // SAME probability (the anonymous/uniform setting the paper's interior
  // stationarity analysis covers), alpha = 1/2 is optimal.
  for (std::uint32_t n : {2u, 3u, 4u, 5u}) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const Rational best = optimal_oblivious_winning_probability(n, t);
    for (int i = 0; i <= 10; ++i) {
      const std::vector<Rational> alpha(n, Rational{i, 10});
      EXPECT_LE(oblivious_winning_probability(alpha, t), best) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ObliviousWinning, IdentityBasedCornersCanBeatUniformHalf) {
  // The optimality conditions (Corollary 4.2) are FIRST-ORDER INTERIOR
  // conditions: on the boundary of [0,1]^n they do not apply, and in fact a
  // deterministic identity-based split (half the players to each bin) beats
  // alpha = 1/2 — e.g. n = 3, t = 1: alpha = (0, 1, 1) achieves
  // IH_1(1) * IH_2(1) = 1/2 > 5/12. Such protocols need distinct player
  // identities, which the paper's anonymous setting excludes; we record the
  // fact here (see EXPERIMENTS.md, "scope of Theorem 4.3").
  const std::vector<Rational> corner{Rational{0}, Rational{1}, Rational{1}};
  EXPECT_EQ(oblivious_winning_probability(corner, Rational{1}), Rational(1, 2));
  EXPECT_GT(oblivious_winning_probability(corner, Rational{1}),
            optimal_oblivious_winning_probability(3, Rational{1}));
}

TEST(ObliviousWinning, SaturatesForLargeCapacity) {
  const std::vector<Rational> alpha(4, Rational(1, 2));
  EXPECT_EQ(oblivious_winning_probability(alpha, Rational{4}), Rational{1});
  EXPECT_EQ(oblivious_winning_probability(alpha, Rational{0}), Rational{0});
  EXPECT_EQ(oblivious_winning_probability(alpha, Rational{-1}), Rational{0});
}

TEST(ObliviousWinning, DoubleMatchesExact) {
  const std::vector<Rational> alpha{Rational(1, 3), Rational(2, 5), Rational(1, 2),
                                    Rational(7, 9)};
  std::vector<double> alpha_d;
  for (const Rational& a : alpha) alpha_d.push_back(a.to_double());
  for (int i = 1; i <= 10; ++i) {
    const Rational t{i, 4};
    EXPECT_NEAR(oblivious_winning_probability(alpha_d, t.to_double()),
                oblivious_winning_probability(alpha, t).to_double(), 1e-12);
  }
  for (std::uint32_t n = 1; n <= 10; ++n) {
    EXPECT_NEAR(optimal_oblivious_winning_probability_double(n, 1.5),
                optimal_oblivious_winning_probability(n, Rational(3, 2)).to_double(), 1e-12);
  }
}

TEST(ObliviousWinning, DoubleMatchesExactPastN40) {
  // The Irwin–Hall factors come from the cancellation-free recurrence, so the
  // double evaluators keep their digits where the alternating sum lost them
  // (it was off by 1.1e-3 at n = 64, t = n/2).
  for (const std::uint32_t n : {48u, 64u}) {
    const Rational t{static_cast<std::int64_t>(n), 2};
    const std::vector<Rational> alpha(n, Rational(1, 2));
    const std::vector<double> alpha_d(n, 0.5);
    EXPECT_NEAR(oblivious_winning_probability(alpha_d, t.to_double()),
                oblivious_winning_probability(alpha, t).to_double(), 1e-13)
        << "n=" << n;
    EXPECT_NEAR(optimal_oblivious_winning_probability_double(n, t.to_double()),
                optimal_oblivious_winning_probability(n, t).to_double(), 1e-13)
        << "n=" << n;
  }
}

TEST(ObliviousWinning, MatchesSimulation) {
  const std::vector<Rational> alpha{Rational(1, 4), Rational(2, 3), Rational(1, 2)};
  const ObliviousProtocol protocol{alpha};
  const Rational t{1};
  const double exact = oblivious_winning_probability(alpha, t).to_double();
  prob::Rng rng{2025};
  const sim::SimResult result =
      sim::estimate_winning_probability(protocol, t.to_double(), 400000, rng);
  EXPECT_TRUE(result.covers(exact)) << result.estimate << " vs " << exact;
}

TEST(ObliviousWinning, ValidatesInput) {
  EXPECT_THROW((void)oblivious_winning_probability(std::vector<Rational>{}, Rational{1}),
               std::invalid_argument);
  EXPECT_THROW((void)oblivious_winning_probability(std::vector<Rational>{Rational{2}},
                                                   Rational{1}),
               std::invalid_argument);
  EXPECT_THROW((void)optimal_oblivious_winning_probability(0, Rational{1}),
               std::invalid_argument);
}

TEST(ObliviousWinning, GrowsWithCapacity) {
  const std::vector<Rational> alpha(5, Rational(1, 2));
  Rational previous{-1};
  for (int i = 1; i <= 20; ++i) {
    const Rational t{i, 4};
    const Rational p = oblivious_winning_probability(alpha, t);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

}  // namespace
}  // namespace ddm::core
