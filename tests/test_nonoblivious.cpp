// Tests for Theorem 5.1 — single-threshold winning probabilities.
#include "core/nonoblivious.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/protocol.hpp"
#include "prob/rng.hpp"
#include "prob/uniform_sum.hpp"
#include "sim/monte_carlo.hpp"

namespace ddm::core {
namespace {

using util::Rational;

TEST(ThresholdWinning, DegenerateThresholdZeroEqualsIrwinHall) {
  // a_i = 0 → everyone picks bin 1: P = IH_n(t).
  for (std::uint32_t n = 1; n <= 5; ++n) {
    const std::vector<Rational> a(n, Rational{0});
    for (int i = 1; i <= 6; ++i) {
      const Rational t{i, 2};
      EXPECT_EQ(threshold_winning_probability(a, t), prob::irwin_hall_cdf(n, t))
          << n << " " << t;
    }
  }
}

TEST(ThresholdWinning, DegenerateThresholdOneEqualsIrwinHall) {
  // a_i = 1 → everyone picks bin 0: P = IH_n(t).
  for (std::uint32_t n = 1; n <= 5; ++n) {
    const std::vector<Rational> a(n, Rational{1});
    for (int i = 1; i <= 6; ++i) {
      const Rational t{i, 2};
      EXPECT_EQ(threshold_winning_probability(a, t), prob::irwin_hall_cdf(n, t));
    }
  }
}

TEST(ThresholdWinning, SingleplayerAlwaysWinsForTAboveOne) {
  const std::vector<Rational> a{Rational(1, 2)};
  EXPECT_EQ(threshold_winning_probability(a, Rational{1}), Rational{1});
  // t = 1/2: wins iff its input <= 1/2 (bin 0) or input <= 1/2... player
  // with x > 1/2 goes to bin 1 and overflows iff x > t. P = P(x <= 1/2) +
  // P(x > 1/2 and x <= 1/2) = 1/2.
  EXPECT_EQ(threshold_winning_probability(a, Rational(1, 2)), Rational(1, 2));
}

TEST(ThresholdWinning, SymmetricAgreesWithGeneral) {
  for (std::uint32_t n = 1; n <= 6; ++n) {
    for (int b = 0; b <= 10; ++b) {
      const Rational beta{b, 10};
      const std::vector<Rational> a(n, beta);
      for (int i = 1; i <= 5; ++i) {
        const Rational t{i, 3};
        EXPECT_EQ(threshold_winning_probability(a, t),
                  symmetric_threshold_winning_probability(n, beta, t))
            << "n=" << n << " beta=" << beta << " t=" << t;
      }
    }
  }
}

TEST(ThresholdWinning, PaperValueN3Beta0622) {
  // Section 5.2.1: P(β) = −11/6 + 9β − 21/2 β² + 7/2 β³ on (1/2, 1].
  const Rational beta{622, 1000};
  const Rational expected = Rational(-11, 6) + Rational{9} * beta -
                            Rational(21, 2) * beta.pow(2) + Rational(7, 2) * beta.pow(3);
  EXPECT_EQ(symmetric_threshold_winning_probability(3, beta, Rational{1}), expected);
}

TEST(ThresholdWinning, PaperPieceN3LowRange) {
  // On [0, 1/2]: P(β) = 1/6 + 3/2 β² − 1/2 β³.
  for (int b = 0; b <= 5; ++b) {
    const Rational beta{b, 10};
    const Rational expected =
        Rational(1, 6) + Rational(3, 2) * beta.pow(2) - Rational(1, 2) * beta.pow(3);
    EXPECT_EQ(symmetric_threshold_winning_probability(3, beta, Rational{1}), expected)
        << "beta=" << beta;
  }
}

TEST(ThresholdWinning, MatchesSimulationHeterogeneous) {
  const std::vector<Rational> a{Rational(3, 5), Rational(1, 2), Rational(7, 10),
                                Rational(2, 5)};
  const SingleThresholdProtocol protocol{a};
  const Rational t{13, 10};
  const double exact = threshold_winning_probability(a, t).to_double();
  prob::Rng rng{31415};
  const sim::SimResult result =
      sim::estimate_winning_probability(protocol, t.to_double(), 400000, rng);
  EXPECT_TRUE(result.covers(exact)) << result.estimate << " vs " << exact;
}

TEST(ThresholdWinning, MatchesSimulationSymmetricN5) {
  const Rational beta{3, 5};
  const Rational t{5, 3};
  const SingleThresholdProtocol protocol = SingleThresholdProtocol::symmetric(5, beta);
  const double exact = symmetric_threshold_winning_probability(5, beta, t).to_double();
  prob::Rng rng{9999};
  const sim::SimResult result =
      sim::estimate_winning_probability(protocol, t.to_double(), 400000, rng);
  EXPECT_TRUE(result.covers(exact)) << result.estimate << " vs " << exact;
}

TEST(ThresholdWinning, ComplementSymmetry) {
  // Mirroring the threshold (β → 1 − β) swaps the bins' roles but NOT the
  // conditional input distributions, so P is not generally symmetric; but at
  // β = 1/2 with symmetric capacity the formula must be well defined and
  // bounded.
  for (std::uint32_t n = 2; n <= 6; ++n) {
    const Rational p =
        symmetric_threshold_winning_probability(n, Rational(1, 2), Rational{1});
    EXPECT_GE(p, Rational{0});
    EXPECT_LE(p, Rational{1});
  }
}

TEST(ThresholdWinning, BoundedInZeroOne) {
  for (std::uint32_t n = 1; n <= 6; ++n) {
    for (int b = 0; b <= 10; ++b) {
      for (int i = 1; i <= 8; ++i) {
        const Rational p = symmetric_threshold_winning_probability(
            n, Rational{b, 10}, Rational{i, 4});
        EXPECT_GE(p, Rational{0}) << n << " " << b << " " << i;
        EXPECT_LE(p, Rational{1}) << n << " " << b << " " << i;
      }
    }
  }
}

TEST(ThresholdWinning, GrowsWithCapacity) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    Rational previous{-1};
    for (int i = 1; i <= 16; ++i) {
      const Rational p = symmetric_threshold_winning_probability(
          n, Rational(3, 5), Rational{i, 4});
      EXPECT_GE(p, previous);
      previous = p;
    }
  }
}

TEST(ThresholdWinning, SaturatesAtLargeCapacity) {
  EXPECT_EQ(symmetric_threshold_winning_probability(4, Rational(1, 2), Rational{4}),
            Rational{1});
  EXPECT_EQ(symmetric_threshold_winning_probability(4, Rational(1, 2), Rational{0}),
            Rational{0});
}

TEST(ThresholdWinning, DoubleMatchesExact) {
  for (std::uint32_t n = 1; n <= 6; ++n) {
    for (int b = 0; b <= 10; ++b) {
      const Rational beta{b, 10};
      for (int i = 1; i <= 6; ++i) {
        const Rational t{i, 3};
        EXPECT_NEAR(
            symmetric_threshold_winning_probability(n, beta.to_double(), t.to_double()),
            symmetric_threshold_winning_probability(n, beta, t).to_double(), 1e-10)
            << n << " " << b << " " << i;
      }
    }
  }
  const std::vector<Rational> a{Rational(3, 5), Rational(1, 2), Rational(7, 10)};
  const std::vector<double> a_d{0.6, 0.5, 0.7};
  for (int i = 1; i <= 6; ++i) {
    const Rational t{i, 3};
    EXPECT_NEAR(threshold_winning_probability(a_d, t.to_double()),
                threshold_winning_probability(a, t).to_double(), 1e-10);
  }
}

TEST(ThresholdWinning, Brackets) {
  // The brackets at their extremes, through the exact symmetric sum. At
  // n = 1, P = B0_1(β) + B1_1(β) with B0_1 = min(β, t) (the weight of
  // x <= β and x <= t) and B1_1 = max(t − β, 0) (β < x <= t), so P = t for
  // t < 1 on either side of β = t.
  const Rational half{1, 2};
  EXPECT_EQ(symmetric_threshold_winning_probability(1, Rational(1, 4), half), half);
  EXPECT_EQ(symmetric_threshold_winning_probability(1, Rational(3, 4), half), half);
  // β = 0 and β = 1 leave one bracket empty (B0_0 = B1_0 = 1): both players
  // share one bin, and P = F_2(1/2) = 1/8.
  EXPECT_EQ(symmetric_threshold_winning_probability(2, Rational{0}, half), Rational(1, 8));
  EXPECT_EQ(symmetric_threshold_winning_probability(2, Rational{1}, half), Rational(1, 8));
}

TEST(ThresholdWinning, ValidatesInput) {
  EXPECT_THROW((void)threshold_winning_probability(std::vector<Rational>{}, Rational{1}),
               std::invalid_argument);
  EXPECT_THROW((void)threshold_winning_probability(
                   std::vector<Rational>{Rational{2}}, Rational{1}),
               std::invalid_argument);
  EXPECT_THROW((void)symmetric_threshold_winning_probability(0, Rational(1, 2), Rational{1}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)symmetric_threshold_winning_probability(3, Rational{2}, Rational{1}),
      std::invalid_argument);
  // The double evaluator rejects a NaN beta or t rather than summing it as 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)symmetric_threshold_winning_probability(3, nan, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)symmetric_threshold_winning_probability(3, 0.5, nan),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddm::core
