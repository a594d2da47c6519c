// Tests for combinat subset iteration — the inclusion-exclusion driver.
#include "combinat/subsets.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "combinat/binomial.hpp"
#include "util/rational.hpp"

namespace ddm::combinat {
namespace {

TEST(SubsetMasks, CountsPowerSet) {
  int count = 0;
  for_each_subset_mask(5, [&count](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 32);
}

TEST(SubsetMasks, EmptyGroundSet) {
  int count = 0;
  for_each_subset_mask(0, [&count](std::uint64_t mask) {
    ++count;
    EXPECT_EQ(mask, 0u);
  });
  EXPECT_EQ(count, 1);
}

TEST(SubsetMasks, RejectsOversizedGroundSet) {
  EXPECT_THROW(for_each_subset_mask(64, [](std::uint64_t) {}), std::invalid_argument);
}

TEST(KSubsets, CountsMatchBinomial) {
  for (std::uint32_t n = 0; n <= 8; ++n) {
    for (std::uint32_t k = 0; k <= n + 1; ++k) {
      int count = 0;
      for_each_k_subset(n, k, [&count](std::span<const std::uint32_t>) { ++count; });
      EXPECT_EQ(count, binomial(n, k).fits_int64() ? binomial(n, k).to_int64() : -1)
          << n << " choose " << k;
    }
  }
}

TEST(KSubsets, LexicographicAndDistinct) {
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<std::uint32_t> previous;
  for_each_k_subset(6, 3, [&](std::span<const std::uint32_t> subset) {
    const std::vector<std::uint32_t> current(subset.begin(), subset.end());
    EXPECT_TRUE(seen.insert(current).second) << "duplicate subset";
    if (!previous.empty()) {
      EXPECT_LT(previous, current) << "not lexicographic";
    }
    previous = current;
    // strictly increasing indices within the subset
    for (std::size_t i = 1; i < current.size(); ++i) EXPECT_LT(current[i - 1], current[i]);
  });
  EXPECT_EQ(seen.size(), 20u);
}

TEST(KSubsets, ZeroKVisitsEmptySubsetOnce) {
  int count = 0;
  for_each_k_subset(4, 0, [&count](std::span<const std::uint32_t> subset) {
    ++count;
    EXPECT_TRUE(subset.empty());
  });
  EXPECT_EQ(count, 1);
}

TEST(Popcount, Basics) {
  EXPECT_EQ(popcount(0), 0u);
  EXPECT_EQ(popcount(0b1011), 3u);
  EXPECT_EQ(popcount(~std::uint64_t{0}), 64u);
}

TEST(InclusionExclusion, CountsDerangementsViaComplement) {
  // Number of permutations of 4 elements with no fixed point is 9;
  // inclusion-exclusion over "position i is fixed": Σ (-1)^|S| (4-|S|)!.
  const std::vector<int> positions{0, 1, 2, 3};
  const auto term = [](std::span<const int> fixed) -> double {
    double f = 1.0;
    for (int i = 1; i <= 4 - static_cast<int>(fixed.size()); ++i) f *= i;
    return f;
  };
  const double derangements = inclusion_exclusion<double, int>(positions, term);
  EXPECT_DOUBLE_EQ(derangements, 9.0);
}

TEST(InclusionExclusion, RationalField) {
  // Σ_{S ⊆ [3]} (-1)^{|S|} (1/2)^{|S|} = (1 - 1/2)^3 = 1/8.
  const std::vector<int> items{1, 2, 3};
  const auto term = [](std::span<const int> subset) {
    return util::Rational{1, 2}.pow(static_cast<std::int64_t>(subset.size()));
  };
  EXPECT_EQ((inclusion_exclusion<util::Rational, int>(items, term)), util::Rational(1, 8));
}

TEST(KSubsetSums, EnumeratesAllSums) {
  const std::vector<int> values{1, 2, 4, 8};
  std::multiset<int> sums;
  for_each_k_subset_sum<int>(values, 2, [&sums](const int& s) { sums.insert(s); });
  const std::multiset<int> expected{3, 5, 9, 6, 10, 12};
  EXPECT_EQ(sums, expected);
}

TEST(KSubsetSums, KZeroGivesZeroSumOnce) {
  const std::vector<int> values{1, 2, 3};
  int count = 0;
  for_each_k_subset_sum<int>(values, 0, [&count](const int& s) {
    ++count;
    EXPECT_EQ(s, 0);
  });
  EXPECT_EQ(count, 1);
}

TEST(KSubsetSums, KLargerThanNVisitsNothing) {
  const std::vector<int> values{1, 2};
  int count = 0;
  for_each_k_subset_sum<int>(values, 5, [&count](const int&) { ++count; });
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace ddm::combinat
