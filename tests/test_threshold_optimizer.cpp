// Tests for the derivative-free threshold search (scope check of
// Theorem 5.2's symmetry/interior claims).
#include "core/threshold_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/nonoblivious.hpp"
#include "core/symmetric_threshold.hpp"

namespace ddm::core {
namespace {

using util::Rational;

TEST(SymmetricSearch, ReproducesPaperOptimumN3) {
  const ThresholdSearchResult result = maximize_symmetric_threshold(3, 1.0);
  EXPECT_NEAR(result.thresholds[0], 1.0 - std::sqrt(1.0 / 7.0), 1e-6);
  EXPECT_NEAR(result.value, 0.544631, 1e-6);
  EXPECT_EQ(result.thresholds.size(), 3u);
}

TEST(SymmetricSearch, ReproducesPaperOptimumN4) {
  const ThresholdSearchResult result = maximize_symmetric_threshold(4, 4.0 / 3.0);
  EXPECT_NEAR(result.thresholds[0], 0.678, 5e-4);
  EXPECT_NEAR(result.value, 0.428539, 1e-5);
}

TEST(SymmetricSearch, MatchesSymbolicOptimumAcrossN) {
  // The search runs on the double symmetric kernel, which must stay accurate
  // past n = 16 (at n = 24, t = 24/5 the alternating sum it used to run put
  // beta* at 0.567466 against the certified 0.562465).
  for (const std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 8u, 12u, 16u, 20u, 24u}) {
    for (const std::int64_t d : {3, 5}) {
      const Rational t{static_cast<std::int64_t>(n), d};
      const auto symbolic = SymmetricThresholdAnalysis::build(n, t).optimize();
      const auto numeric = maximize_symmetric_threshold(n, t.to_double());
      EXPECT_NEAR(numeric.thresholds[0], symbolic.beta.approx(), 1e-6) << "n=" << n << " t=" << t;
      EXPECT_NEAR(numeric.value, symbolic.value.to_double(), 1e-9) << "n=" << n << " t=" << t;
    }
  }
}

TEST(SymmetricSearch, Validation) {
  EXPECT_THROW((void)maximize_symmetric_threshold(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)maximize_symmetric_threshold(3, 1.0, 0.5, -1.0), std::invalid_argument);
}

TEST(FullSearch, FromSymmetricStartStaysNearSymmetricOptimum) {
  // Starting ON the diagonal at the symmetric optimum, compass moves along
  // single axes can still escape if an asymmetric improvement exists — for
  // n = 3, t = 1 we verify empirically what the search finds is at least as
  // good as the symmetric optimum.
  const auto symbolic = SymmetricThresholdAnalysis::build(3, Rational{1}).optimize();
  const ThresholdSearchResult result =
      maximize_thresholds(std::vector<double>(3, symbolic.beta.approx()), 1.0);
  EXPECT_GE(result.value, symbolic.value.to_double() - 1e-12);
}

TEST(FullSearch, FindsIdentityCornersFromAsymmetricStart) {
  // Scope of Theorem 5.2: with distinct player identities available, the
  // search escapes to corner protocols. From a strongly asymmetric start at
  // n = 4, t = 4/3 it must end at least as high as the deterministic 2-2
  // split, thresholds (1,1,0,0), whose value IH_2(4/3)^2 = (7/9)^2 = 49/81
  // crushes the symmetric optimum 0.4285.
  const ThresholdSearchResult result =
      maximize_thresholds(std::vector<double>{0.95, 0.9, 0.1, 0.05}, 4.0 / 3.0);
  EXPECT_GE(result.value, 49.0 / 81.0 - 1e-9);
}

TEST(FullSearch, CornerSplitValueExact) {
  // The 2-2 identity split at n = 4, t = 4/3 evaluated through Theorem 5.1.
  const std::vector<Rational> corner{Rational{1}, Rational{1}, Rational{0}, Rational{0}};
  EXPECT_EQ(threshold_winning_probability(corner, Rational(4, 3)), Rational(49, 81));
}

TEST(FullSearch, NeverReturnsWorseThanStart) {
  const std::vector<double> start{0.3, 0.7, 0.5};
  const double initial = threshold_winning_probability(start, 1.0);
  const ThresholdSearchResult result = maximize_thresholds(start, 1.0);
  EXPECT_GE(result.value, initial);
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_LT(result.final_step, 1e-9);
}

TEST(FullSearch, ClampsIntoUnitBox) {
  const ThresholdSearchResult result =
      maximize_thresholds(std::vector<double>{-0.3, 1.8}, 1.0);
  for (const double a : result.thresholds) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(FullSearch, Validation) {
  EXPECT_THROW((void)maximize_thresholds(std::vector<double>{}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)maximize_thresholds(std::vector<double>(20, 0.5), 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)maximize_thresholds(std::vector<double>{0.5}, 1.0, -0.1),
               std::invalid_argument);
}

TEST(FullSearch, RespectsEvaluationBudget) {
  const ThresholdSearchResult result =
      maximize_thresholds(std::vector<double>(4, 0.3), 4.0 / 3.0, 0.25, 1e-10, 50);
  EXPECT_LE(result.evaluations, 50u);
}

// Serial re-implementation of the compass loop, probe by probe through the
// single-point evaluator — the behaviour maximize_thresholds had before its
// probes were batched through threshold_winning_probability_batch. The
// production search must reproduce the same accepted iterate sequence
// bitwise: probe values are batch-kernel outputs, which are bitwise equal to
// single-point calls, so acceptance decisions cannot diverge.
ThresholdSearchResult serial_compass_reference(std::vector<double> start, double t,
                                               double initial_step, double tolerance,
                                               std::uint32_t max_evaluations,
                                               std::vector<std::vector<double>>& accepted) {
  for (double& a : start) a = std::clamp(a, 0.0, 1.0);
  ThresholdSearchResult result;
  result.thresholds = std::move(start);
  result.value = threshold_winning_probability(result.thresholds, t);
  result.evaluations = 1;
  double step = initial_step;
  struct Probe {
    std::size_t axis;
    double candidate;
    double value;
  };
  std::vector<Probe> probes;
  while (step >= tolerance && result.evaluations < max_evaluations) {
    probes.clear();
    for (std::size_t i = 0; i < result.thresholds.size(); ++i) {
      for (const double direction : {+1.0, -1.0}) {
        const double original = result.thresholds[i];
        const double candidate = std::clamp(original + direction * step, 0.0, 1.0);
        if (candidate != original) probes.push_back({i, candidate, 0.0});
      }
    }
    const std::size_t budget = max_evaluations - result.evaluations;
    if (probes.size() > budget) probes.resize(budget);
    if (probes.empty()) break;
    std::vector<double> point(result.thresholds);
    for (Probe& probe : probes) {
      point[probe.axis] = probe.candidate;
      probe.value = threshold_winning_probability(point, t);
      point[probe.axis] = result.thresholds[probe.axis];
    }
    result.evaluations += static_cast<std::uint32_t>(probes.size());
    const Probe* best = &probes[0];
    for (const Probe& probe : probes) {
      if (probe.value > best->value) best = &probe;
    }
    if (best->value > result.value) {
      result.thresholds[best->axis] = best->candidate;
      result.value = best->value;
      accepted.push_back(result.thresholds);
    } else {
      step *= 0.5;
    }
  }
  result.final_step = step;
  return result;
}

TEST(FullSearch, BatchedProbesReproduceSerialIterateSequenceBitwise) {
  const struct {
    std::vector<double> start;
    double t;
    double step;
    double tolerance;
    std::uint32_t budget;
  } cases[] = {
      {{0.3, 0.7, 0.5}, 1.0, 0.25, 1e-8, 100000},
      {std::vector<double>(4, 0.3), 4.0 / 3.0, 0.25, 1e-10, 50},
      {{0.95, 0.9, 0.1, 0.05}, 4.0 / 3.0, 0.25, 1e-6, 100000},
      {std::vector<double>(5, 0.62), 5.0 / 3.0, 0.125, 1e-7, 100000},
  };
  for (const auto& c : cases) {
    std::vector<std::vector<double>> accepted;
    const ThresholdSearchResult reference =
        serial_compass_reference(c.start, c.t, c.step, c.tolerance, c.budget, accepted);
    const ThresholdSearchResult batched =
        maximize_thresholds(c.start, c.t, c.step, c.tolerance, c.budget);
    EXPECT_EQ(batched.thresholds, reference.thresholds);
    EXPECT_EQ(batched.value, reference.value);
    EXPECT_EQ(batched.evaluations, reference.evaluations);
    EXPECT_EQ(batched.final_step, reference.final_step);
    // Replaying the batched search against the recorded accepted iterates
    // requires identical probe values at every acceptance, so any bitwise
    // divergence along the path (not just at the end) fails above; the
    // recorded sequence also documents that acceptances actually happened.
    EXPECT_FALSE(accepted.empty());
  }
}

// Parameterized: the symmetric search value never exceeds (and the full
// search never falls below) the certified symbolic optimum on the diagonal.
class SearchConsistency : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SearchConsistency, SymbolicBracketsNumeric) {
  const std::uint32_t n = GetParam();
  const Rational t{static_cast<std::int64_t>(n), 3};
  const auto symbolic = SymmetricThresholdAnalysis::build(n, t).optimize();
  const auto symmetric_numeric = maximize_symmetric_threshold(n, t.to_double());
  EXPECT_LE(symmetric_numeric.value, symbolic.value.to_double() + 1e-9);
  const auto full = maximize_thresholds(
      std::vector<double>(n, symmetric_numeric.thresholds[0]), t.to_double());
  EXPECT_GE(full.value, symbolic.value.to_double() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ns, SearchConsistency, ::testing::Values(2u, 3u, 4u, 5u, 6u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

}  // namespace
}  // namespace ddm::core
