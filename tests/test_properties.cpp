// Cross-module property tests: heavier randomized/parameterized invariants
// tying several layers together (the "does the whole stack cohere" suite).
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "core/nonoblivious.hpp"
#include "core/oblivious.hpp"
#include "core/symmetric_threshold.hpp"
#include "geom/volume.hpp"
#include "poly/interpolate.hpp"
#include "poly/polynomial.hpp"
#include "poly/roots.hpp"
#include "prob/uniform_sum.hpp"
#include "util/bigint.hpp"
#include "util/rational.hpp"

namespace ddm {
namespace {

using poly::QPoly;
using util::BigInt;
using util::Rational;

// ---------------------------------------------------------------------------
// BigInt: Knuth-D stress on adversarial limb patterns (the add-back branch
// triggers when the trial quotient digit overshoots; these shapes are the
// classic provokers).
// ---------------------------------------------------------------------------

TEST(Property, BigIntDivisionAdversarialPatterns) {
  std::vector<BigInt> specials;
  // Powers of two around limb boundaries, +/- 1, and 0xFFFF... patterns.
  for (const int bits : {31, 32, 33, 63, 64, 65, 95, 96, 127, 128, 160, 192}) {
    const BigInt p = BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(bits));
    specials.push_back(p);
    specials.push_back(p - BigInt{1});
    specials.push_back(p + BigInt{1});
    specials.push_back(p - BigInt{0x7fffffffLL});
  }
  for (const BigInt& a : specials) {
    for (const BigInt& b : specials) {
      if (b.is_zero()) continue;
      const auto [q, r] = BigInt::div_mod(a, b);
      EXPECT_EQ(q * b + r, a) << a << " / " << b;
      EXPECT_TRUE(r.abs() < b.abs());
      EXPECT_TRUE(r.is_zero() || r.signum() == a.signum());
    }
  }
}

TEST(Property, BigIntDivisionAddBackShape) {
  // Canonical Hacker's-Delight add-back trigger: dividend window top limbs
  // nearly equal to the divisor's. Construct many near-miss shapes.
  std::mt19937_64 gen{80443};
  for (int iter = 0; iter < 200; ++iter) {
    BigInt v = (BigInt{1} << 95) + (BigInt{static_cast<std::int64_t>(gen() % 1000)} << 32) +
               BigInt{static_cast<std::int64_t>(gen() % 1000)};
    BigInt u = v * BigInt{static_cast<std::int64_t>(gen() % 1000 + 1)} +
               (v - BigInt{1 + static_cast<std::int64_t>(gen() % 1000)});
    const auto [q, r] = BigInt::div_mod(u, v);
    EXPECT_EQ(q * v + r, u);
    EXPECT_TRUE(r.abs() < v.abs());
  }
}

// ---------------------------------------------------------------------------
// Polynomial algebra coherence.
// ---------------------------------------------------------------------------

QPoly random_poly(std::mt19937_64& gen, int max_degree) {
  std::vector<Rational> coeffs;
  const int degree = static_cast<int>(gen() % static_cast<std::uint64_t>(max_degree + 1));
  for (int i = 0; i <= degree; ++i) {
    coeffs.emplace_back(static_cast<std::int64_t>(gen() % 19) - 9,
                        1 + static_cast<std::int64_t>(gen() % 7));
  }
  return QPoly{std::move(coeffs)};
}

TEST(Property, ComposeIsAssociativeAndEvaluationCompatible) {
  std::mt19937_64 gen{777};
  for (int iter = 0; iter < 40; ++iter) {
    const QPoly f = random_poly(gen, 4);
    const QPoly g = random_poly(gen, 3);
    const QPoly h = random_poly(gen, 2);
    EXPECT_EQ(f.compose(g).compose(h), f.compose(g.compose(h)));
    const Rational x{static_cast<std::int64_t>(gen() % 13) - 6, 5};
    EXPECT_EQ(f.compose(g)(x), f(g(x)));
  }
}

TEST(Property, DerivativeIsLinearAndLeibniz) {
  std::mt19937_64 gen{778};
  for (int iter = 0; iter < 40; ++iter) {
    const QPoly f = random_poly(gen, 5);
    const QPoly g = random_poly(gen, 5);
    EXPECT_EQ((f + g).derivative(), f.derivative() + g.derivative());
    EXPECT_EQ((f * g).derivative(), f.derivative() * g + f * g.derivative());
    EXPECT_EQ(f.antiderivative().derivative(), f);
  }
}

TEST(Property, InterpolationInvertsEvaluation) {
  std::mt19937_64 gen{779};
  for (int iter = 0; iter < 25; ++iter) {
    const QPoly f = random_poly(gen, 6);
    std::vector<std::pair<Rational, Rational>> points;
    for (int i = 0; i <= 6; ++i) {
      const Rational x{2 * i + 1, 15};
      points.emplace_back(x, f(x));
    }
    EXPECT_EQ(poly::lagrange_interpolate(points), f);
  }
}

TEST(Property, RootsOfRandomProductsAreAllFound) {
  // Build polynomials with known rational roots; isolation must find exactly
  // the distinct ones, each bracketed correctly.
  std::mt19937_64 gen{780};
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Rational> roots;
    QPoly p{Rational{1}};
    const int count = 2 + static_cast<int>(gen() % 4);
    for (int k = 0; k < count; ++k) {
      const Rational root{static_cast<std::int64_t>(gen() % 21) - 10,
                          1 + static_cast<std::int64_t>(gen() % 6)};
      roots.push_back(root);
      p = p * QPoly{std::vector<Rational>{-root, Rational{1}}};
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    const auto found = poly::isolate_all_roots(p);
    ASSERT_EQ(found.size(), roots.size()) << p.to_string();
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_LE(found[i].lo, roots[i]);
      EXPECT_GE(found[i].hi, roots[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Geometry ↔ probability coherence: Lemma 2.4 IS Proposition 2.2.
// ---------------------------------------------------------------------------

TEST(Property, SumUniformCdfEqualsVolumeRatio) {
  std::mt19937_64 gen{781};
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t m = 1 + gen() % 4;
    std::vector<Rational> pi;
    for (std::size_t l = 0; l < m; ++l) {
      pi.emplace_back(1 + static_cast<std::int64_t>(gen() % 8), 4);
    }
    const Rational t{1 + static_cast<std::int64_t>(gen() % 12), 4};
    // Vol({x in box : Σ x <= t}) / Vol(box) — simplex sides all t.
    const std::vector<Rational> sigma(m, t);
    const Rational ratio =
        geom::simplex_box_volume(sigma, pi) / geom::box_volume(pi);
    EXPECT_EQ(prob::sum_uniform_cdf(pi, t), ratio) << "m=" << m << " t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Winning-probability coherence across engines.
// ---------------------------------------------------------------------------

class EngineAgreement : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(EngineAgreement, ObliviousMonotoneInCommonAlphaTowardHalf) {
  // Moving a symmetric alpha toward 1/2 never hurts (unimodality along the
  // diagonal, the computational content of Lemma 4.6).
  const auto [n, t_num] = GetParam();
  const Rational t{t_num, 3};
  Rational previous{-1};
  for (int i = 0; i <= 10; ++i) {  // alpha = i/20 from 0 to 1/2
    const std::vector<Rational> alpha(n, Rational{i, 20});
    const Rational p = core::oblivious_winning_probability(alpha, t);
    EXPECT_GE(p, previous) << "alpha=" << i << "/20";
    previous = p;
  }
}

TEST_P(EngineAgreement, SymbolicPieceMatchesEngineAtBreakpoints) {
  // Continuity at breakpoints ties the piecewise construction to the
  // numeric engine exactly where the indicator pattern changes.
  const auto [n, t_num] = GetParam();
  const Rational t{t_num, 3};
  const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
  for (const Rational& breakpoint : analysis.breakpoints()) {
    EXPECT_EQ(analysis.winning_probability()(breakpoint),
              core::symmetric_threshold_winning_probability(n, breakpoint, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, EngineAgreement,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 6u),
                                            ::testing::Values(2, 3, 4, 5)),
                         [](const auto& info) {
                           std::string name = "n";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_t";
                           name += std::to_string(std::get<1>(info.param));
                           name += "over3";
                           return name;
                         });

}  // namespace
}  // namespace ddm
