// Tests for Sturm sequences — exact real-root counting.
#include "sturm.hpp"

#include <gtest/gtest.h>

#include "poly/roots.hpp"

namespace ddm::poly {
namespace {

using util::Rational;

QPoly make(std::initializer_list<std::int64_t> coeffs_low_first) {
  std::vector<Rational> coeffs;
  for (const std::int64_t c : coeffs_low_first) coeffs.emplace_back(c);
  return QPoly{std::move(coeffs)};
}

TEST(Sturm, QuadraticWithTwoRoots) {
  // x² − 3x + 2 has roots 1 and 2.
  const SturmSequence s{make({2, -3, 1})};
  EXPECT_EQ(s.count_all_roots(), 2);
  EXPECT_EQ(s.count_roots(Rational{0}, Rational{3}), 2);
  EXPECT_EQ(s.count_roots(Rational{0}, Rational(3, 2)), 1);
  EXPECT_EQ(s.count_roots(Rational(3, 2), Rational{3}), 1);
  EXPECT_EQ(s.count_roots(Rational{5}, Rational{9}), 0);
}

TEST(Sturm, CountIsHalfOpenOnTheLeft) {
  // Root exactly at an endpoint: (a, b] includes b, excludes a.
  const SturmSequence s{make({-1, 1})};  // root at 1
  EXPECT_EQ(s.count_roots(Rational{0}, Rational{1}), 1);   // 1 ∈ (0, 1]
  EXPECT_EQ(s.count_roots(Rational{1}, Rational{2}), 0);   // 1 ∉ (1, 2]
}

TEST(Sturm, NoRealRoots) {
  const SturmSequence s{make({1, 0, 1})};  // x² + 1
  EXPECT_EQ(s.count_all_roots(), 0);
  EXPECT_EQ(s.count_roots(Rational{-10}, Rational{10}), 0);
}

TEST(Sturm, CubicWithThreeRoots) {
  // (x+1)x(x−1) = x³ − x
  const SturmSequence s{make({0, -1, 0, 1})};
  EXPECT_EQ(s.count_all_roots(), 3);
  EXPECT_EQ(s.count_roots(Rational(-1, 2), Rational(1, 2)), 1);  // only 0
}

TEST(Sturm, MultipleRootsCountedOnce) {
  // (x − 1)² x — Sturm counts distinct roots: {0, 1}.
  const QPoly p = make({-1, 1}) * make({-1, 1}) * make({0, 1});
  const SturmSequence s{p};
  EXPECT_EQ(s.count_all_roots(), 2);
}

TEST(Sturm, PaperOptimalityConditionN3) {
  // 21/2 β² − 21 β + 9  (∝ β² − 2β + 6/7): exactly one root in (1/2, 1],
  // the optimal threshold 1 − sqrt(1/7) (Section 5.2.1).
  const QPoly condition{std::vector<Rational>{Rational{9}, Rational{-21}, Rational(21, 2)}};
  const SturmSequence s{condition};
  EXPECT_EQ(s.count_all_roots(), 2);
  EXPECT_EQ(s.count_roots(Rational(1, 2), Rational{1}), 1);
  EXPECT_EQ(s.count_roots(Rational{0}, Rational(1, 2)), 0);
  EXPECT_EQ(s.count_roots(Rational{1}, Rational{2}), 1);  // 1 + sqrt(1/7)
}

TEST(Sturm, PaperOptimalityConditionN4) {
  // −26/3 β³ + 98/3 β² − 368/9 β + 416/27 (sign-corrected from the paper):
  // exactly one real root in (0, 1], at β ≈ 0.678 (Section 5.2.2).
  const QPoly condition{std::vector<Rational>{Rational(416, 27), Rational(-368, 9),
                                              Rational(98, 3), Rational(-26, 3)}};
  const SturmSequence s{condition};
  EXPECT_EQ(s.count_roots(Rational{0}, Rational{1}), 1);
  EXPECT_EQ(s.count_roots(Rational(2, 3), Rational{1}), 1);
}

TEST(Sturm, LinearAndConstant) {
  EXPECT_EQ(SturmSequence{make({-4, 2})}.count_all_roots(), 1);
  EXPECT_EQ(SturmSequence{make({7})}.count_all_roots(), 0);
  EXPECT_EQ(SturmSequence{QPoly{}}.count_all_roots(), 0);
}

TEST(Sturm, SignChangesAtRootOfChainMember) {
  // Evaluating the chain exactly at a root of p itself must still give
  // consistent counts on both sides.
  const SturmSequence s{make({0, -1, 0, 1})};  // roots -1, 0, 1
  EXPECT_EQ(s.count_roots(Rational{-1}, Rational{1}), 2);  // (−1, 1] ∋ {0, 1}
  EXPECT_EQ(s.count_roots(Rational{-2}, Rational{1}), 3);
}

TEST(Sturm, InvalidIntervalThrows) {
  const SturmSequence s{make({-1, 1})};
  EXPECT_THROW((void)s.count_roots(Rational{2}, Rational{1}), std::invalid_argument);
}

TEST(CauchyBound, BoundsAllRoots) {
  // x² − 3x + 2: roots 1, 2. Bound = 1 + 3 = 4.
  EXPECT_EQ(cauchy_root_bound(make({2, -3, 1})), Rational{4});
  // Scaling the polynomial doesn't change its roots; bound stays valid.
  const QPoly scaled = make({2, -3, 1}) * Rational(1, 7);
  EXPECT_GE(cauchy_root_bound(scaled), Rational{2});
  EXPECT_THROW((void)cauchy_root_bound(QPoly{}), std::invalid_argument);
}

TEST(Sturm, ChainEndsAtGcd) {
  // For square-free p, the chain's last element is a nonzero constant.
  const SturmSequence s{make({2, -3, 1})};
  ASSERT_FALSE(s.chain().empty());
  EXPECT_EQ(s.chain().back().degree(), 0);
}

}  // namespace
}  // namespace ddm::poly
