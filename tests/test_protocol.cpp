// Tests for the decision-protocol model of Section 3.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "util/status.hpp"

namespace ddm::core {
namespace {

using util::Rational;

TEST(ObliviousProtocol, ValidatesProbabilityVector) {
  EXPECT_THROW((ObliviousProtocol{std::vector<Rational>{}}), std::invalid_argument);
  EXPECT_THROW((ObliviousProtocol{std::vector<Rational>{Rational{2}}}), std::invalid_argument);
  EXPECT_THROW((ObliviousProtocol{std::vector<Rational>{Rational{-1, 2}}}),
               std::invalid_argument);
  EXPECT_NO_THROW((ObliviousProtocol{std::vector<Rational>{Rational{0}, Rational{1}}}));
}

TEST(ObliviousProtocol, UniformFactory) {
  const ObliviousProtocol protocol = ObliviousProtocol::uniform(4);
  EXPECT_EQ(protocol.size(), 4u);
  for (const Rational& a : protocol.alpha()) EXPECT_EQ(a, Rational(1, 2));
}

TEST(ObliviousProtocol, DegenerateProbabilitiesAreDeterministic) {
  const ObliviousProtocol protocol{
      std::vector<Rational>{Rational{1}, Rational{0}}};
  prob::Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(protocol.decide(0, 0.3, rng), kBin0);  // α = 1 → always bin 0
    EXPECT_EQ(protocol.decide(1, 0.3, rng), kBin1);  // α = 0 → always bin 1
  }
}

TEST(ObliviousProtocol, IgnoresInput) {
  const ObliviousProtocol protocol{std::vector<Rational>{Rational{1}}};
  prob::Rng rng{5};
  EXPECT_EQ(protocol.decide(0, 0.0, rng), protocol.decide(0, 1.0, rng));
}

TEST(ObliviousProtocol, FrequencyMatchesAlpha) {
  const ObliviousProtocol protocol{std::vector<Rational>{Rational(1, 4)}};
  prob::Rng rng{17};
  int zeros = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (protocol.decide(0, 0.5, rng) == kBin0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / n, 0.25, 0.01);
}

TEST(ObliviousProtocol, OutOfRangePlayerThrows) {
  const ObliviousProtocol protocol = ObliviousProtocol::uniform(2);
  prob::Rng rng{1};
  EXPECT_THROW((void)protocol.decide(2, 0.5, rng), std::out_of_range);
}

TEST(ObliviousProtocol, NameMentionsAlpha) {
  const ObliviousProtocol protocol = ObliviousProtocol::uniform(2);
  EXPECT_NE(protocol.name().find("1/2"), std::string::npos);
}

TEST(SingleThresholdProtocol, DecidesByThreshold) {
  const SingleThresholdProtocol protocol{std::vector<Rational>{Rational(1, 2), Rational(1, 4)}};
  prob::Rng rng{1};
  EXPECT_EQ(protocol.decide(0, 0.49, rng), kBin0);
  EXPECT_EQ(protocol.decide(0, 0.5, rng), kBin0);   // boundary: x <= a → bin 0
  EXPECT_EQ(protocol.decide(0, 0.51, rng), kBin1);
  EXPECT_EQ(protocol.decide(1, 0.3, rng), kBin1);
  EXPECT_EQ(protocol.decide(1, 0.2, rng), kBin0);
}

TEST(SingleThresholdProtocol, SymmetricFactory) {
  const SingleThresholdProtocol protocol =
      SingleThresholdProtocol::symmetric(5, Rational(2, 3));
  EXPECT_EQ(protocol.size(), 5u);
  for (const Rational& a : protocol.thresholds()) EXPECT_EQ(a, Rational(2, 3));
}

TEST(SingleThresholdProtocol, Validation) {
  EXPECT_THROW((SingleThresholdProtocol{std::vector<Rational>{}}), std::invalid_argument);
  EXPECT_THROW((SingleThresholdProtocol{std::vector<Rational>{Rational{3, 2}}}),
               std::invalid_argument);
}

TEST(FunctorProtocol, CallsPerPlayerRule) {
  std::vector<FunctorProtocol::Rule> rules;
  rules.push_back([](double, prob::Rng&) { return kBin0; });
  rules.push_back([](double x, prob::Rng&) { return x > 0.5 ? kBin1 : kBin0; });
  const FunctorProtocol protocol{std::move(rules), "test"};
  prob::Rng rng{1};
  EXPECT_EQ(protocol.decide(0, 0.9, rng), kBin0);
  EXPECT_EQ(protocol.decide(1, 0.9, rng), kBin1);
  EXPECT_EQ(protocol.decide(1, 0.1, rng), kBin0);
  EXPECT_EQ(protocol.name(), "test");
}

TEST(FunctorProtocol, Validation) {
  EXPECT_THROW(FunctorProtocol({}, "empty"), std::invalid_argument);
  std::vector<FunctorProtocol::Rule> rules{FunctorProtocol::Rule{}};
  EXPECT_THROW(FunctorProtocol(std::move(rules), "null rule"), std::invalid_argument);
}

TEST(Play, AccumulatesBinLoads) {
  const SingleThresholdProtocol protocol =
      SingleThresholdProtocol::symmetric(3, Rational(1, 2));
  prob::Rng rng{1};
  const std::vector<double> inputs{0.2, 0.7, 0.4};
  const BinLoads loads = play(protocol, inputs, rng);
  EXPECT_DOUBLE_EQ(loads.bin0, 0.2 + 0.4);
  EXPECT_DOUBLE_EQ(loads.bin1, 0.7);
}

TEST(Play, SizeMismatchThrows) {
  const SingleThresholdProtocol protocol =
      SingleThresholdProtocol::symmetric(3, Rational(1, 2));
  prob::Rng rng{1};
  EXPECT_THROW((void)play(protocol, std::vector<double>{0.1}, rng), std::invalid_argument);
}

TEST(Wins, ChecksBothBins) {
  const SingleThresholdProtocol protocol =
      SingleThresholdProtocol::symmetric(3, Rational(1, 2));
  prob::Rng rng{1};
  EXPECT_TRUE(wins(protocol, std::vector<double>{0.2, 0.7, 0.4}, 1.0, rng));
  // bin0 load 0.9 > 0.8 → overflow at t = 0.8? bin0 = 0.6, bin1 = 0.7: wins.
  EXPECT_TRUE(wins(protocol, std::vector<double>{0.2, 0.7, 0.4}, 0.8, rng));
  // t = 0.5: bin0 = 0.6 overflows.
  EXPECT_FALSE(wins(protocol, std::vector<double>{0.2, 0.7, 0.4}, 0.5, rng));
}

TEST(Wins, BoundaryIsInclusive) {
  const SingleThresholdProtocol protocol =
      SingleThresholdProtocol::symmetric(2, Rational(1, 2));
  prob::Rng rng{1};
  // 0.5 -> bin 0, 0.6 -> bin 1; loads exactly equal to t count as no
  // overflow (Σ_b <= t).
  EXPECT_TRUE(wins(protocol, std::vector<double>{0.5, 0.6}, 0.6, rng));
  EXPECT_FALSE(wins(protocol, std::vector<double>{0.5, 0.6}, 0.59, rng));
}

// The kernel's contract, one trial at a time: on a copy of the same stream
// it draws, routes and judges exactly as `wins` does for a protocol with the
// rule x <= a_i, and leaves the stream in the same state. Each trial sets
// one player's threshold to the very x it is about to draw (the inclusive
// boundary) and, on two trials in three, t to the heavier reference load or
// the double just below it, so a load that differs in its last bit flips a
// verdict.
TEST(ThresholdTrials, MatchesPlayTrialByTrial) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2024ull, 99991ull}) {
    prob::Rng setup{seed};
    const std::size_t n = 1 + static_cast<std::size_t>(setup.uniform_below(40));
    std::vector<double> ranges(n);
    std::vector<double> thresholds(n);
    for (std::size_t i = 0; i < n; ++i) {
      ranges[i] = setup.bernoulli(0.5) ? 1.0 : setup.uniform(0.25, 3.0);
      const double pinned[] = {0.0, 1.0, kInf, -kInf};
      thresholds[i] = i < 4 ? pinned[i] : setup.uniform(0.0, ranges[i]);
    }
    prob::Rng kernel_rng{seed + 1};
    prob::Rng play_rng{seed + 1};
    std::vector<double> inputs(n);
    std::uint64_t won = 0;
    constexpr std::uint64_t kTrials = 400;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      prob::Rng peek = kernel_rng;
      const std::size_t boundary = trial % n;
      for (std::size_t i = 0; i <= boundary; ++i) inputs[i] = peek.uniform(0.0, ranges[i]);
      const double saved = thresholds[boundary];
      thresholds[boundary] = inputs[boundary];

      std::vector<FunctorProtocol::Rule> rules;
      for (const double a : thresholds) {
        rules.push_back([a](double x, prob::Rng&) { return x <= a ? kBin0 : kBin1; });
      }
      const FunctorProtocol protocol{std::move(rules), "threshold"};
      for (std::size_t i = 0; i < n; ++i) inputs[i] = play_rng.uniform(0.0, ranges[i]);
      prob::Rng unused{0};
      const BinLoads loads = play(protocol, inputs, unused);
      const double heavier = std::max(loads.bin0, loads.bin1);
      const double t = trial % 3 == 0   ? static_cast<double>(n) / 3.0
                       : trial % 3 == 1 ? heavier
                                        : std::nextafter(heavier, 0.0);
      const bool expected = wins(protocol, inputs, t, unused);

      const std::uint64_t counted = count_threshold_wins(ranges, thresholds, t, 1, kernel_rng);
      ASSERT_EQ(counted, expected ? 1u : 0u) << "seed " << seed << " trial " << trial;
      won += counted;
      thresholds[boundary] = saved;
    }
    EXPECT_EQ(kernel_rng(), play_rng()) << "streams diverged, seed " << seed;
    EXPECT_GT(won, 0u) << "seed " << seed;
    EXPECT_LT(won, kTrials) << "seed " << seed;
  }
}

TEST(ThresholdTrials, ManyTrialsEqualOneTrialAtATime) {
  const std::vector<double> ranges{1.0, 0.5, 2.0, 1.0, 1.5};
  const std::vector<double> thresholds{0.6, 0.25, 1.2, 0.0, 1.5};
  prob::Rng batched{11};
  prob::Rng single{11};
  const std::uint64_t trials = kTrialsPerBlock + 77;
  std::uint64_t one_by_one = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    one_by_one += count_threshold_wins(ranges, thresholds, 2.0, 1, single);
  }
  EXPECT_EQ(count_threshold_wins(ranges, thresholds, 2.0, trials, batched), one_by_one);
  EXPECT_EQ(batched(), single());
}

TEST(ThresholdTrials, PollsItsControlBetweenBlocks) {
  const std::vector<double> ones(4, 1.0);
  const std::vector<double> thresholds(4, 0.5);
  util::RunControl control;
  control.token = util::CancelToken::create();
  control.token.cancel();
  prob::Rng rng{3};
  prob::Rng untouched{3};
  EXPECT_THROW((void)count_threshold_wins(ones, thresholds, 1.0, 10, rng, control),
               ddm::Cancelled);
  EXPECT_EQ(rng(), untouched());
  control = {};
  control.deadline = util::Deadline::after(std::chrono::nanoseconds(0));
  EXPECT_THROW((void)count_threshold_wins(ones, thresholds, 1.0, 10, rng, control),
               ddm::DeadlineExceeded);
}

TEST(ThresholdTrials, Validation) {
  prob::Rng rng{1};
  const std::vector<double> two(2, 1.0);
  const std::vector<double> three(3, 1.0);
  EXPECT_THROW((void)count_threshold_wins(two, three, 1.0, 10, rng), std::invalid_argument);
  EXPECT_EQ(count_threshold_wins(two, two, 1.0, 0, rng), 0u);
}

}  // namespace
}  // namespace ddm::core
