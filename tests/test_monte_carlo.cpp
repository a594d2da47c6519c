// Tests for the Monte Carlo simulation harness.
#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/oblivious.hpp"
#include "core/protocol.hpp"

namespace ddm::sim {
namespace {

using util::Rational;

TEST(WilsonInterval, BasicProperties) {
  const SimResult r = wilson_interval(50, 100);
  EXPECT_DOUBLE_EQ(r.estimate, 0.5);
  EXPECT_GT(r.ci_high, r.ci_low);
  EXPECT_GT(r.ci_low, 0.3);
  EXPECT_LT(r.ci_high, 0.7);
  EXPECT_TRUE(r.covers(0.5));
  EXPECT_FALSE(r.covers(0.9));
}

TEST(WilsonInterval, ExtremesStayInUnitInterval) {
  const SimResult zero = wilson_interval(0, 1000);
  EXPECT_GE(zero.ci_low, 0.0);
  EXPECT_GT(zero.ci_high, 0.0);  // Wilson never collapses to a point at 0
  const SimResult one = wilson_interval(1000, 1000);
  EXPECT_LE(one.ci_high, 1.0);
  EXPECT_LT(one.ci_low, 1.0);
}

TEST(WilsonInterval, ShrinksWithSamples) {
  const SimResult small = wilson_interval(50, 100);
  const SimResult large = wilson_interval(5000, 10000);
  EXPECT_LT(large.ci_high - large.ci_low, small.ci_high - small.ci_low);
}

TEST(WilsonInterval, Validation) {
  EXPECT_THROW((void)wilson_interval(1, 0), std::invalid_argument);
  EXPECT_THROW((void)wilson_interval(5, 4), std::invalid_argument);
}

TEST(EstimateWinning, DeterministicGivenSeed) {
  const auto protocol = core::ObliviousProtocol::uniform(3);
  prob::Rng rng_a{42};
  prob::Rng rng_b{42};
  const SimResult a = estimate_winning_probability(protocol, 1.0, 50000, rng_a);
  const SimResult b = estimate_winning_probability(protocol, 1.0, 50000, rng_b);
  EXPECT_EQ(a.wins, b.wins);
}

TEST(EstimateWinning, CoversExactValue) {
  const auto protocol = core::ObliviousProtocol::uniform(3);
  const double exact =
      core::optimal_oblivious_winning_probability(3, Rational{1}).to_double();  // 5/12
  prob::Rng rng{7};
  const SimResult result = estimate_winning_probability(protocol, 1.0, 500000, rng);
  EXPECT_TRUE(result.covers(exact)) << result.estimate;
}

/// A FunctorProtocol with the rule of a single-threshold protocol: x <= a_i.
core::FunctorProtocol as_functor(const core::SingleThresholdProtocol& protocol) {
  std::vector<core::FunctorProtocol::Rule> rules;
  for (const double a : protocol.threshold_values()) {
    rules.push_back([a](double x, prob::Rng&) { return x <= a ? core::kBin0 : core::kBin1; });
  }
  return core::FunctorProtocol{std::move(rules), "threshold-functor"};
}

TEST(EstimateWinning, WinsTallyIndependentOfThreadCount) {
  // The trial range is cut into fixed blocks with per-block rng streams, so
  // the tally must be bitwise identical for every thread count — including
  // trial counts that are not multiples of the block size — on the generic
  // trial loop and on the threshold kernel alike.
  const auto oblivious = core::ObliviousProtocol::uniform(3);
  const auto symmetric = core::SingleThresholdProtocol::symmetric(6, Rational(3, 5));
  const core::SingleThresholdProtocol per_player{
      {Rational(1, 4), Rational(1, 2), Rational(3, 4), Rational(1), Rational(0)}};
  const std::pair<const core::Protocol*, double> cases[] = {
      {&oblivious, 1.0}, {&symmetric, 2.0}, {&per_player, 5.0 / 3.0}};
  for (const auto& [protocol, t] : cases) {
    for (const std::uint64_t trials : {50000ull, 100000ull, 16384ull * 3 + 123}) {
      prob::Rng rng_1{42};
      prob::Rng rng_2{42};
      prob::Rng rng_8{42};
      const SimResult one = estimate_winning_probability(*protocol, t, trials, rng_1, 1);
      const SimResult two = estimate_winning_probability(*protocol, t, trials, rng_2, 2);
      const SimResult eight = estimate_winning_probability(*protocol, t, trials, rng_8, 8);
      EXPECT_EQ(one.wins, two.wins) << protocol->name() << " " << trials;
      EXPECT_EQ(one.wins, eight.wins) << protocol->name() << " " << trials;
      EXPECT_EQ(one.trials, trials);
    }
  }
}

TEST(EstimateWinning, SingleThresholdMatchesTheGenericPath) {
  // A threshold protocol runs the branch-free kernel; a FunctorProtocol with
  // the same rule runs the generic loop through core::wins. Same seed, same
  // tally, on any thread count.
  const auto symmetric = core::SingleThresholdProtocol::symmetric(12, Rational(5, 8));
  const core::SingleThresholdProtocol per_player{
      {Rational(1, 3), Rational(1), Rational(0), Rational(7, 10), Rational(1, 2)}};
  const std::pair<const core::SingleThresholdProtocol*, double> cases[] = {
      {&symmetric, 4.0}, {&per_player, 1.25}};
  for (const auto& [protocol, t] : cases) {
    const core::FunctorProtocol functor = as_functor(*protocol);
    for (const std::uint64_t trials : {1000ull, 16384ull * 2 + 5}) {
      for (const unsigned threads : {1u, 4u}) {
        prob::Rng kernel_rng{9};
        prob::Rng generic_rng{9};
        const SimResult kernel =
            estimate_winning_probability(*protocol, t, trials, kernel_rng, threads);
        const SimResult generic =
            estimate_winning_probability(functor, t, trials, generic_rng, threads);
        EXPECT_EQ(kernel.wins, generic.wins) << protocol->name() << " " << trials;
        EXPECT_GT(kernel.wins, 0u);
        EXPECT_LT(kernel.wins, trials);
      }
    }
  }
}

TEST(EstimateWinning, MultithreadedMatchesExactToo) {
  const auto protocol = core::ObliviousProtocol::uniform(4);
  const double exact =
      core::optimal_oblivious_winning_probability(4, Rational(4, 3)).to_double();
  prob::Rng rng{11};
  const SimResult result =
      estimate_winning_probability(protocol, 4.0 / 3.0, 500000, rng, /*threads=*/4);
  EXPECT_TRUE(result.covers(exact)) << result.estimate << " vs " << exact;
  EXPECT_EQ(result.trials, 500000u);
}

TEST(EstimateWinning, ZeroThreadsTreatedAsOne) {
  const auto protocol = core::ObliviousProtocol::uniform(2);
  prob::Rng rng{3};
  const SimResult result = estimate_winning_probability(protocol, 1.0, 10000, rng, 0);
  EXPECT_EQ(result.trials, 10000u);
}

TEST(EstimateWinning, Validation) {
  const auto protocol = core::ObliviousProtocol::uniform(2);
  prob::Rng rng{3};
  EXPECT_THROW((void)estimate_winning_probability(protocol, 1.0, 0, rng),
               std::invalid_argument);
}

TEST(EstimateEvent, MatchesAnalyticArea) {
  // P(x + y <= 1) over the unit square is 1/2.
  prob::Rng rng{21};
  const SimResult result = estimate_event_probability(
      2, [](std::span<const double> xs) { return xs[0] + xs[1] <= 1.0; }, 300000, rng);
  EXPECT_TRUE(result.covers(0.5));
}

TEST(EstimateEvent, Validation) {
  prob::Rng rng{1};
  EXPECT_THROW((void)estimate_event_probability(
                   2, [](std::span<const double>) { return true; }, 0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_event_probability(2, nullptr, 10, rng), std::invalid_argument);
}

TEST(EstimateEvent, DegenerateProbabilities) {
  prob::Rng rng{1};
  const SimResult always = estimate_event_probability(
      1, [](std::span<const double>) { return true; }, 1000, rng);
  EXPECT_DOUBLE_EQ(always.estimate, 1.0);
  const SimResult never = estimate_event_probability(
      1, [](std::span<const double>) { return false; }, 1000, rng);
  EXPECT_DOUBLE_EQ(never.estimate, 0.0);
}

TEST(EstimateWinning, StandardErrorScaling) {
  const auto protocol = core::ObliviousProtocol::uniform(3);
  prob::Rng rng_a{5};
  prob::Rng rng_b{5};
  const SimResult small = estimate_winning_probability(protocol, 1.0, 10000, rng_a);
  const SimResult large = estimate_winning_probability(protocol, 1.0, 640000, rng_b);
  // 64x the samples → ~8x smaller standard error.
  EXPECT_NEAR(small.standard_error / large.standard_error, 8.0, 2.0);
}

}  // namespace
}  // namespace ddm::sim
