// Tests for the symbolic piecewise analysis of Section 5.2 — the module that
// re-derives the paper's case analyses mechanically.
#include "core/symmetric_threshold.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "combinat/binomial.hpp"
#include "core/nonoblivious.hpp"
#include "poly/bernstein.hpp"
#include "prob/uniform_sum.hpp"
#include "sturm.hpp"

namespace ddm::core {
namespace {

using poly::QPoly;
using util::Rational;

QPoly make(std::initializer_list<Rational> coeffs_low_first) {
  return QPoly{std::vector<Rational>(coeffs_low_first)};
}

// The per-piece construction over Q, bracket by bracket with a gcd after
// every operation, exactly as SymmetricThresholdAnalysis::build derived its
// pieces before it moved to integer brackets — the reference the integer
// construction must reproduce coefficient for coefficient.
QPoly reference_zero_bracket(std::uint32_t m, const Rational& t, const Rational& probe) {
  if (m == 0) return QPoly{Rational{1}};
  QPoly sum;
  for (std::uint32_t l = 0; l <= m; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    if ((t - ll * probe).signum() <= 0) continue;
    QPoly term = poly::binomial_power(t, -ll, m);
    term *= Rational{combinat::binomial(m, l), util::BigInt{1}};
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  sum *= combinat::inverse_factorial(m);
  return sum;
}

QPoly reference_one_bracket(std::uint32_t k, const Rational& t, const Rational& probe) {
  if (k == 0) return QPoly{Rational{1}};
  const Rational kk{static_cast<std::int64_t>(k)};
  QPoly sum;
  for (std::uint32_t l = 0; l <= k; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    const Rational constant = kk - t - ll;
    if ((constant + ll * probe).signum() <= 0) continue;
    QPoly term = poly::binomial_power(constant, ll, k);
    term *= Rational{combinat::binomial(k, l), util::BigInt{1}};
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  sum *= combinat::inverse_factorial(k);
  return poly::binomial_power(Rational{1}, Rational{-1}, k) - sum;
}

QPoly reference_piece(std::uint32_t n, const Rational& t, const Rational& lo,
                      const Rational& hi) {
  const Rational probe = (lo + hi) * Rational{1, 2};
  QPoly piece;
  for (std::uint32_t k = 0; k <= n; ++k) {
    QPoly term = reference_zero_bracket(n - k, t, probe) * reference_one_bracket(k, t, probe);
    term *= Rational{combinat::binomial(n, k), util::BigInt{1}};
    piece += term;
  }
  return piece;
}

// Distinct critical points of `p` in (lo, hi], located by Sturm counts alone
// (independent of the Descartes isolator) to within 2^-40; returns a point
// of each bracket.
std::vector<Rational> sturm_critical_points(const QPoly& p, const Rational& lo,
                                            const Rational& hi) {
  const QPoly derivative = p.derivative().square_free_part();
  if (derivative.degree() < 1) return {};
  const poly::SturmSequence sturm{derivative};
  const Rational width{util::BigInt{1}, util::BigInt::pow(util::BigInt{2}, 40)};
  std::vector<Rational> points;
  std::vector<std::pair<Rational, Rational>> open{{lo, hi}};
  while (!open.empty()) {
    const auto [a, b] = open.back();
    open.pop_back();
    const int count = sturm.count_roots(a, b);
    if (count == 0) continue;
    if (count == 1 && b - a <= width) {
      points.push_back(b);
      continue;
    }
    const Rational mid = (a + b) * Rational{1, 2};
    open.emplace_back(a, mid);
    open.emplace_back(mid, b);
  }
  return points;
}

TEST(SymmetricAnalysis, ValidatesInput) {
  EXPECT_THROW((void)SymmetricThresholdAnalysis::build(0, Rational{1}), std::invalid_argument);
  EXPECT_THROW((void)SymmetricThresholdAnalysis::build(3, Rational{0}), std::invalid_argument);
  EXPECT_THROW((void)SymmetricThresholdAnalysis::build(3, Rational{-1}), std::invalid_argument);
}

TEST(SymmetricAnalysis, N3T1BreakpointsMatchPaper) {
  // Section 5.2.1 splits [0, 1] at 1/3 and 1/2.
  const auto analysis = SymmetricThresholdAnalysis::build(3, Rational{1});
  const auto breakpoints = analysis.breakpoints();
  ASSERT_EQ(breakpoints.size(), 4u);
  EXPECT_EQ(breakpoints[0], Rational{0});
  EXPECT_EQ(breakpoints[1], Rational(1, 3));
  EXPECT_EQ(breakpoints[2], Rational(1, 2));
  EXPECT_EQ(breakpoints[3], Rational{1});
}

TEST(SymmetricAnalysis, N3T1PiecePolynomialsMatchPaper) {
  // [0, 1/3] and (1/3, 1/2]: 1/6 + 3/2 β² − 1/2 β³
  // (1/2, 1]:                −11/6 + 9β − 21/2 β² + 7/2 β³.
  const auto analysis = SymmetricThresholdAnalysis::build(3, Rational{1});
  const auto& pieces = analysis.winning_probability().pieces();
  ASSERT_EQ(pieces.size(), 3u);
  const QPoly low = make({Rational(1, 6), Rational{0}, Rational(3, 2), Rational(-1, 2)});
  const QPoly high = make({Rational(-11, 6), Rational{9}, Rational(-21, 2), Rational(7, 2)});
  EXPECT_EQ(pieces[0].poly, low);
  EXPECT_EQ(pieces[1].poly, low);
  EXPECT_EQ(pieces[2].poly, high);
}

TEST(SymmetricAnalysis, N3T1OptimumIsPaperValue) {
  // β* = 1 − sqrt(1/7) ≈ 0.62204, P* ≈ 0.5446 (settling the PY conjecture).
  const auto analysis = SymmetricThresholdAnalysis::build(3, Rational{1});
  const SymmetricOptimum opt = analysis.optimize();
  EXPECT_TRUE(opt.interior);
  EXPECT_EQ(opt.piece_index, 2u);
  EXPECT_NEAR(opt.beta.approx(), 1.0 - std::sqrt(1.0 / 7.0), 1e-15);
  EXPECT_NEAR(opt.value.to_double(), 0.544631, 1e-6);
  // The optimality condition is 9 − 21β + 21/2 β², i.e. (21/2)(β² − 2β + 6/7):
  // exactly the paper's polynomial equation (Section 5.2.1).
  const QPoly expected = make({Rational(6, 7), Rational{-2}, Rational{1}}) * Rational(21, 2);
  EXPECT_EQ(opt.optimality_condition, expected);
  // The optimum satisfies the condition: value changes sign across the
  // isolating interval.
  EXPECT_LE((opt.optimality_condition(opt.beta.lo) * opt.optimality_condition(opt.beta.hi))
                .signum(),
            0);
}

TEST(SymmetricAnalysis, N4T43OptimalityConditionMatchesCorrectedPaper) {
  // Section 5.2.2 (constant sign-corrected): the optimal piece's derivative is
  // proportional to 26/3 β³ − 98/3 β² + 368/9 β − 416/27; root β ≈ 0.678.
  const auto analysis = SymmetricThresholdAnalysis::build(4, Rational(4, 3));
  const SymmetricOptimum opt = analysis.optimize();
  EXPECT_TRUE(opt.interior);
  EXPECT_NEAR(opt.beta.approx(), 0.678, 5e-4);
  const QPoly expected = make({Rational(416, 27), Rational(-368, 9), Rational(98, 3),
                               Rational(-26, 3)});
  // Proportionality check: cross-multiply leading and trailing coefficients.
  const QPoly& got = opt.optimality_condition;
  ASSERT_EQ(got.degree(), expected.degree());
  const Rational scale = got.leading_coefficient() / expected.leading_coefficient();
  EXPECT_EQ(got, expected * scale);
}

TEST(SymmetricAnalysis, OptimaAreCertified) {
  // The interval-arithmetic certification must succeed on every instance we
  // reproduce: the optimum provably dominates all other candidates.
  for (std::uint32_t n = 1; n <= 6; ++n) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    EXPECT_TRUE(SymmetricThresholdAnalysis::build(n, t).optimize().certified) << "n=" << n;
  }
  EXPECT_TRUE(SymmetricThresholdAnalysis::build(3, Rational{1}).optimize().certified);
  EXPECT_TRUE(SymmetricThresholdAnalysis::build(4, Rational(4, 3)).optimize().certified);
}

TEST(SymmetricAnalysis, ContinuityForManyInstances) {
  for (std::uint32_t n = 1; n <= 7; ++n) {
    for (const Rational& t : {Rational{1}, Rational{static_cast<std::int64_t>(n), 3},
                              Rational(3, 4), Rational{2}}) {
      const auto analysis = SymmetricThresholdAnalysis::build(n, t);
      EXPECT_TRUE(analysis.winning_probability().is_continuous())
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(SymmetricAnalysis, AgreesWithDirectEvaluationEverywhere) {
  // The symbolic pieces must reproduce the numeric Theorem 5.1 evaluator at
  // every rational probe (this pins the piecewise construction).
  for (std::uint32_t n = 1; n <= 6; ++n) {
    for (const Rational& t :
         {Rational{1}, Rational{static_cast<std::int64_t>(n), 3}, Rational(5, 4)}) {
      const auto analysis = SymmetricThresholdAnalysis::build(n, t);
      for (int i = 0; i <= 24; ++i) {
        const Rational beta{i, 24};
        EXPECT_EQ(analysis.winning_probability()(beta),
                  symmetric_threshold_winning_probability(n, beta, t))
            << "n=" << n << " t=" << t << " beta=" << beta;
      }
    }
  }
}

TEST(SymmetricAnalysis, EndpointValuesAreIrwinHall) {
  // β = 0 (all bin 1) and β = 1 (all bin 0) both give IH_n(t).
  for (std::uint32_t n = 2; n <= 6; ++n) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const auto analysis = SymmetricThresholdAnalysis::build(n, t);
    const Rational expected = prob::irwin_hall_cdf(n, t);
    EXPECT_EQ(analysis.winning_probability()(Rational{0}), expected);
    EXPECT_EQ(analysis.winning_probability()(Rational{1}), expected);
  }
}

TEST(SymmetricAnalysis, OptimaDifferAcrossN) {
  // The heart of Section 5.2: the optimal threshold depends on n (with
  // capacity scaled as t = n/3), so no uniform optimal protocol exists.
  const auto opt3 = SymmetricThresholdAnalysis::build(3, Rational{1}).optimize();
  const auto opt4 = SymmetricThresholdAnalysis::build(4, Rational(4, 3)).optimize();
  const auto opt5 = SymmetricThresholdAnalysis::build(5, Rational(5, 3)).optimize();
  const Rational gap43 = (opt4.beta.midpoint() - opt3.beta.midpoint()).abs();
  const Rational gap54 = (opt5.beta.midpoint() - opt4.beta.midpoint()).abs();
  EXPECT_GT(gap43, Rational(1, 100));
  EXPECT_GT(gap54, Rational(1, 1000));
}

TEST(SymmetricAnalysis, OptimumBeatsEveryGridProbe) {
  for (std::uint32_t n : {3u, 4u, 5u}) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const auto analysis = SymmetricThresholdAnalysis::build(n, t);
    const SymmetricOptimum opt = analysis.optimize();
    for (int i = 0; i <= 50; ++i) {
      const Rational beta{i, 50};
      const Rational slack{1, 1000000000000};
      EXPECT_GE(opt.value + slack, analysis.winning_probability()(beta))
          << "n=" << n << " beta=" << beta;
    }
  }
}

TEST(SymmetricAnalysis, N1HasNoInteriorStructure) {
  // One player, t >= 1: wins always; P ≡ 1 on [0,1].
  const auto analysis = SymmetricThresholdAnalysis::build(1, Rational{1});
  for (int i = 0; i <= 10; ++i) {
    EXPECT_EQ(analysis.winning_probability()(Rational{i, 10}), Rational{1});
  }
}

TEST(SymmetricAnalysis, LargeCapacityGivesConstantOne) {
  const auto analysis = SymmetricThresholdAnalysis::build(4, Rational{5});
  for (int i = 0; i <= 10; ++i) {
    EXPECT_EQ(analysis.winning_probability()(Rational{i, 10}), Rational{1});
  }
  const SymmetricOptimum opt = analysis.optimize();
  EXPECT_EQ(opt.value, Rational{1});
}

TEST(SymmetricAnalysis, IntegerPiecesEqualTheRationalConstruction) {
  for (std::uint32_t n = 1; n <= 10; ++n) {
    const auto nn = static_cast<std::int64_t>(n);
    for (const Rational& t : {Rational{nn, 3}, Rational{nn, 4}, Rational{1}, Rational{2 * nn + 1, 7}}) {
      const auto analysis = SymmetricThresholdAnalysis::build(n, t);
      for (const poly::Piece& piece : analysis.winning_probability().pieces()) {
        EXPECT_EQ(piece.poly, reference_piece(n, t, piece.lo, piece.hi))
            << "n=" << n << " t=" << t << " piece [" << piece.lo << ", " << piece.hi << "]";
      }
    }
  }
}

TEST(SymmetricAnalysis, PruningIsSound) {
  // maximize drops a piece when its Bernstein bound is <= the best
  // breakpoint value. Every dropped piece's true maximum — its endpoints and
  // its critical points, located by the Sturm oracle — must then lie below
  // the certified optimum's upper enclosure.
  std::size_t pruned = 0;
  for (std::uint32_t n = 2; n <= 10; ++n) {
    for (const Rational& t : {Rational{static_cast<std::int64_t>(n), 3}, Rational{1}}) {
      const auto analysis = SymmetricThresholdAnalysis::build(n, t);
      const poly::PiecewisePolynomial& pw = analysis.winning_probability();
      const poly::MaxCandidate best = pw.maximize();
      ASSERT_TRUE(best.certified) << "n=" << n << " t=" << t;
      const Rational& ceiling = best.value_bounds.hi();
      Rational best_breakpoint = pw(pw.domain_lo());
      for (const poly::Piece& piece : pw.pieces()) {
        best_breakpoint = std::max(best_breakpoint, piece.poly(piece.hi));
      }
      for (const poly::Piece& piece : pw.pieces()) {
        util::BigInt den;
        const poly::ZPoly numerator = poly::clear_denominators(piece.poly, &den);
        const Rational bound = poly::to_bernstein(numerator, piece.lo, piece.hi).upper_bound() /
                               Rational{den, util::BigInt{1}};
        if (piece.poly.degree() < 2 || bound > best_breakpoint) continue;
        ++pruned;
        EXPECT_LE(piece.poly(piece.lo), ceiling);
        EXPECT_LE(piece.poly(piece.hi), ceiling);
        for (const Rational& point : sturm_critical_points(piece.poly, piece.lo, piece.hi)) {
          EXPECT_LE(piece.poly(point), bound) << "n=" << n << " t=" << t;
          EXPECT_LE(piece.poly(point), ceiling)
              << "n=" << n << " t=" << t << " piece [" << piece.lo << ", " << piece.hi << "]";
        }
      }
    }
  }
  EXPECT_GT(pruned, 100u);
}

TEST(SymmetricAnalysis, CertifiesTheN24Optimum) {
  // n = 24 took minutes with a Sturm chain per piece; the pruned search
  // certifies it with one piece searched.
  const auto analysis = SymmetricThresholdAnalysis::build(24, Rational{8});
  const SymmetricOptimum opt = analysis.optimize();
  EXPECT_TRUE(opt.certified);
  EXPECT_TRUE(opt.interior);
  EXPECT_NEAR(opt.beta.approx(), 0.716787076680519, 1e-12);
  EXPECT_NEAR(opt.value.to_double(), 0.813751529347479, 1e-12);
}

}  // namespace
}  // namespace ddm::core
