// Tests for real-root isolation and refinement.
#include "poly/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>

namespace ddm::poly {
namespace {

using util::BigInt;
using util::Rational;

QPoly make(std::initializer_list<std::int64_t> coeffs_low_first) {
  std::vector<Rational> coeffs;
  for (const std::int64_t c : coeffs_low_first) coeffs.emplace_back(c);
  return QPoly{std::move(coeffs)};
}

Rational tiny_width() { return Rational{BigInt{1}, BigInt::pow(BigInt{2}, 80)}; }

TEST(RootIsolation, QuadraticRoots) {
  const auto roots = isolate_all_roots(make({2, -3, 1}));  // roots 1, 2
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(refine_root(make({2, -3, 1}), roots[0], tiny_width()).approx(), 1.0, 1e-20);
  EXPECT_NEAR(refine_root(make({2, -3, 1}), roots[1], tiny_width()).approx(), 2.0, 1e-20);
}

TEST(RootIsolation, IsolatingIntervalsAreDisjointAndSorted) {
  // Roots at 0, 1/2, 1, 3/2: p = x(2x−1)(x−1)(2x−3)
  const QPoly p = make({0, 1}) * make({-1, 2}) * make({-1, 1}) * make({-3, 2});
  const auto roots = isolate_all_roots(p);
  ASSERT_EQ(roots.size(), 4u);
  for (std::size_t i = 1; i < roots.size(); ++i) {
    EXPECT_LE(roots[i - 1].hi, roots[i].lo);
  }
}

TEST(RootIsolation, RationalRootBracketedTightly) {
  const QPoly p = make({-1, 2});  // root 1/2
  const auto roots = isolate_all_roots(p);
  ASSERT_EQ(roots.size(), 1u);
  const RootInterval refined = refine_root(p, roots[0], tiny_width());
  EXPECT_LE((refined.midpoint() - Rational(1, 2)).abs(), tiny_width());
  EXPECT_LE(refined.lo, Rational(1, 2));
  EXPECT_GE(refined.hi, Rational(1, 2));
}

TEST(RootIsolation, IrrationalRootSqrt2) {
  const QPoly p = make({-2, 0, 1});
  const auto roots = isolate_roots(p, Rational{0}, Rational{2});
  ASSERT_EQ(roots.size(), 1u);
  const RootInterval refined = refine_root(p, roots[0], tiny_width());
  EXPECT_NEAR(refined.approx(), std::sqrt(2.0), 1e-15);
  EXPECT_FALSE(refined.is_exact());
  // The refined interval still brackets the root: p changes sign across it.
  EXPECT_LE((p(refined.lo) * p(refined.hi)).signum(), 0);
}

TEST(RootIsolation, MultipleRootsReportedOnce) {
  const QPoly p = make({-1, 1}).pow(3) * make({-3, 1});  // (x−1)³ (x−3)
  const auto roots = isolate_all_roots(p);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(refine_root(p, roots[0], tiny_width()).approx(), 1.0, 1e-20);
  EXPECT_NEAR(refine_root(p, roots[1], tiny_width()).approx(), 3.0, 1e-20);
}

TEST(RootIsolation, EmptyWhenNoRoots) {
  EXPECT_TRUE(isolate_all_roots(make({1, 0, 1})).empty());
  EXPECT_TRUE(isolate_roots(make({2, -3, 1}), Rational{5}, Rational{9}).empty());
  EXPECT_TRUE(isolate_all_roots(QPoly{Rational{3}}).empty());
}

TEST(RootIsolation, ZeroPolynomialThrows) {
  EXPECT_THROW((void)isolate_all_roots(QPoly{}), std::invalid_argument);
  EXPECT_THROW((void)isolate_roots(QPoly{}, Rational{0}, Rational{1}), std::invalid_argument);
}

TEST(RootIsolation, InvertedIntervalThrows) {
  EXPECT_THROW((void)isolate_roots(make({-1, 1}), Rational{2}, Rational{0}),
               std::invalid_argument);
}

TEST(UniqueRoot, PaperN3Threshold) {
  // β² − 2β + 6/7: the root in (1/2, 1] is 1 − sqrt(1/7) = 0.6220355...
  // (the optimal threshold of Section 5.2.1, conjectured by PY'91).
  const QPoly condition{std::vector<Rational>{Rational(6, 7), Rational{-2}, Rational{1}}};
  const RootInterval root = unique_root(condition, Rational(1, 2), Rational{1}, tiny_width());
  EXPECT_NEAR(root.approx(), 1.0 - std::sqrt(1.0 / 7.0), 1e-15);
}

TEST(UniqueRoot, PaperN4Threshold) {
  // −26/3 β³ + 98/3 β² − 368/9 β + 416/27: unique root in (0, 1] at ≈ 0.678
  // (Section 5.2.2, sign-corrected constant).
  const QPoly condition{std::vector<Rational>{Rational(416, 27), Rational(-368, 9),
                                              Rational(98, 3), Rational(-26, 3)}};
  const RootInterval root = unique_root(condition, Rational{0}, Rational{1}, tiny_width());
  EXPECT_NEAR(root.approx(), 0.678, 5e-4);
}

TEST(UniqueRoot, ThrowsWhenCountIsNotOne) {
  const QPoly two_roots = make({2, -3, 1});
  EXPECT_THROW((void)unique_root(two_roots, Rational{0}, Rational{3}, tiny_width()),
               std::logic_error);
  EXPECT_THROW((void)unique_root(two_roots, Rational{5}, Rational{6}, tiny_width()),
               std::logic_error);
}

TEST(RefineRoot, WidthContract) {
  const QPoly p = make({-2, 0, 1});
  auto roots = isolate_roots(p, Rational{0}, Rational{2});
  ASSERT_EQ(roots.size(), 1u);
  for (int bits : {10, 40, 120}) {
    const Rational width{BigInt{1}, BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(bits))};
    const RootInterval refined = refine_root(p, roots[0], width);
    EXPECT_LE(refined.width(), width);
  }
}

TEST(RefineRoot, ExactIntervalPassesThrough) {
  const RootInterval exact{Rational(1, 2), Rational(1, 2)};
  const RootInterval refined = refine_root(make({-1, 2}), exact, tiny_width());
  EXPECT_TRUE(refined.is_exact());
  EXPECT_EQ(refined.midpoint(), Rational(1, 2));
}

TEST(RootInterval, Accessors) {
  const RootInterval r{Rational{0}, Rational(1, 2)};
  EXPECT_EQ(r.midpoint(), Rational(1, 4));
  EXPECT_EQ(r.width(), Rational(1, 2));
  EXPECT_FALSE(r.is_exact());
  EXPECT_DOUBLE_EQ(r.approx(), 0.25);
}

TEST(RootIsolation, DenseRootClusters) {
  // Roots at k/10 for k = 1..6 — forces deep bisection to separate them.
  QPoly p{Rational{1}};
  for (int k = 1; k <= 6; ++k) p = p * QPoly{std::vector<Rational>{Rational(-k, 10), Rational{1}}};
  const auto roots = isolate_roots(p, Rational{0}, Rational{1});
  ASSERT_EQ(roots.size(), 6u);
  for (int k = 1; k <= 6; ++k) {
    const RootInterval refined = refine_root(p, roots[static_cast<std::size_t>(k - 1)],
                                             tiny_width());
    EXPECT_LE((refined.midpoint() - Rational(k, 10)).abs(), tiny_width()) << k;
  }
}

TEST(RefineRoot, EvenMultiplicityRootFallsBackToTheSquareFreePart) {
  // (3x − 1)² (x + 5): no sign change across the double root at 1/3, so the
  // refinement bisects the square-free part instead.
  const QPoly p = make({-1, 3}).pow(2) * make({5, 1});
  const auto roots = isolate_roots(p, Rational{0}, Rational{1});
  ASSERT_EQ(roots.size(), 1u);
  const RootInterval refined = refine_root(p, roots[0], tiny_width());
  EXPECT_LE(refined.width(), tiny_width());
  EXPECT_LE(refined.lo, Rational(1, 3));
  EXPECT_GE(refined.hi, Rational(1, 3));
}

TEST(RootIsolation, RootsAtTheEndsAndAtDyadicMidpoints) {
  // Roots at lo = 0 (excluded: the interval is (lo, hi]), at the dyadic
  // points 1/2 and 3/4 of the subdivision, and at hi = 1 (included).
  const QPoly p = make({0, 1}) * make({-1, 2}) * make({-3, 4}) * make({-1, 1}) * make({-1, 5});
  const auto roots = isolate_roots(p, Rational{0}, Rational{1});
  ASSERT_EQ(roots.size(), 4u);
  EXPECT_EQ(refine_root(p, roots[0], tiny_width()).lo <= Rational(1, 5) &&
                Rational(1, 5) <= refine_root(p, roots[0], tiny_width()).hi,
            true);
  EXPECT_TRUE(roots[1].is_exact());
  EXPECT_EQ(roots[1].lo, Rational(1, 2));
  EXPECT_TRUE(roots[2].is_exact());
  EXPECT_EQ(roots[2].lo, Rational(3, 4));
  EXPECT_TRUE(roots[3].is_exact());
  EXPECT_EQ(roots[3].lo, Rational{1});
}

TEST(RootIsolation, DescartesCountsMatchSturmOnRandomPolynomials) {
  // ~200 seeded integer polynomials of degree <= 12, each a product of
  // planted linear factors — repeated roots, roots at the interval's ends
  // and at its dyadic subdivision points — and a random integer cofactor.
  // The Descartes isolator must find exactly as many distinct roots in
  // (lo, hi] as the Sturm chain of the square-free part counts, in sorted,
  // disjoint intervals that each hold exactly one of them.
  std::mt19937_64 rng{20261017};
  const auto draw = [&rng](std::int64_t below) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(below));
  };
  int total_roots = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Rational lo{draw(17) - 8, 1 + draw(4)};
    const Rational hi = lo + Rational{1 + draw(24), 1 + draw(6)};
    // Root candidates: interior rationals, the ends, dyadic midpoints.
    const Rational span = hi - lo;
    const std::vector<Rational> planted = {
        lo,
        hi,
        lo + span * Rational{1, 2},
        lo + span * Rational{3, 4},
        lo + span * Rational{5, 16},
        lo + span * Rational{1 + draw(9), 11},
        lo + span * Rational{1 + draw(29), 31},
        lo - Rational{1 + draw(5)},
    };
    QPoly p{Rational{1}};
    const int linear = static_cast<int>(draw(8));
    for (int f = 0; f < linear; ++f) {
      const Rational& root = planted[static_cast<std::size_t>(draw(8))];
      const int power = 1 + static_cast<int>(draw(3));
      p = p * QPoly{std::vector<Rational>{-root, Rational{1}}}.pow(
                  static_cast<std::uint32_t>(power));
      if (p.degree() >= 10) break;
    }
    const int extra = static_cast<int>(draw(std::max(1, 13 - p.degree())));
    std::vector<Rational> cofactor;
    for (int i = 0; i <= extra; ++i) cofactor.emplace_back(draw(41) - 20);
    if (cofactor.back().is_zero()) cofactor.back() = Rational{1};
    p = p * QPoly{std::move(cofactor)};
    ASSERT_LE(p.degree(), 12);

    const SturmSequence oracle{p.square_free_part()};
    const int expected = oracle.count_roots(lo, hi);
    const auto roots = isolate_roots(p, lo, hi);
    ASSERT_EQ(static_cast<int>(roots.size()), expected)
        << "trial " << trial << ": p = " << p.to_string() << " on (" << lo << ", " << hi << "]";
    total_roots += expected;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const RootInterval& root = roots[i];
      if (root.is_exact()) {
        EXPECT_TRUE(p(root.lo).is_zero()) << "trial " << trial;
      } else {
        EXPECT_EQ(oracle.count_roots(root.lo, root.hi), 1) << "trial " << trial;
      }
      EXPECT_GT(root.hi, lo);
      EXPECT_LE(root.hi, hi);
      if (i > 0) {
        EXPECT_LE(roots[i - 1].hi, root.lo) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(total_roots, 300);
}

}  // namespace
}  // namespace ddm::poly
