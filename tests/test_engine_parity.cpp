// Cross-engine parity: every registered engine, run on the golden instances
// of tests/test_golden.cpp (n = 2..6, β = k/8, t = n/3) plus the n = 12,
// t = 4 acceptance instance, must agree with exact rational ground truth
// within its *stated* tolerance — 0 for exact evaluation, the plan
// certificate for compiled plans, tight float slack for the batch kernel,
// the request tolerance for the certified ladder, and statistical slack for
// Monte Carlo. Any engine added to the registry is picked up automatically;
// an engine with no tolerance entry here fails loudly rather than silently
// passing with an arbitrary bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/nonoblivious.hpp"
#include "engine/evaluator.hpp"
#include "engine/registry.hpp"
#include "util/rational.hpp"

namespace ddm::engine {
namespace {

using util::Rational;

struct Instance {
  EvalRequest request;
  std::vector<Rational> truth;  ///< exact value per grid point
};

// The β = k/8 golden grid for one n, with exact ground truth computed by the
// library's rational evaluator (itself pinned by tests/test_golden.cpp).
Instance golden_instance(std::uint32_t n, Rational t) {
  Instance instance;
  std::vector<double> betas;
  std::vector<Rational> exact_betas;
  for (int key = 0; key <= 8; ++key) {
    betas.push_back(static_cast<double>(key) / 8.0);
    exact_betas.emplace_back(key, 8);
  }
  instance.request = EvalRequest::symmetric(n, t, std::move(betas));
  instance.request.exact_betas = std::move(exact_betas);
  for (const Rational& beta : instance.request.exact_betas) {
    instance.truth.push_back(core::symmetric_threshold_winning_probability(n, beta, t));
  }
  return instance;
}

std::vector<Instance> parity_instances() {
  std::vector<Instance> instances;
  for (std::uint32_t n = 2; n <= 6; ++n) {
    instances.push_back(golden_instance(n, Rational{static_cast<std::int64_t>(n), 3}));
  }
  // The acceptance instance: n = 12, t = 4 — large enough that the kernels
  // walk 3^12 subsets and the compiled plan's certificate is non-trivial.
  Instance acceptance;
  std::vector<double> betas{0.25, 0.375, 0.5, 0.625};
  std::vector<Rational> exact_betas{{1, 4}, {3, 8}, {1, 2}, {5, 8}};
  acceptance.request = EvalRequest::symmetric(12, Rational{4}, std::move(betas));
  acceptance.request.exact_betas = std::move(exact_betas);
  for (const Rational& beta : acceptance.request.exact_betas) {
    acceptance.truth.push_back(
        core::symmetric_threshold_winning_probability(12, beta, Rational{4}));
  }
  instances.push_back(std::move(acceptance));
  return instances;
}

// The stated per-engine agreement bound against exact ground truth. The
// compiled engine's bound comes from the outcome (its plan certificate);
// everything else is a fixed contract.
double stated_tolerance(const Evaluator& evaluator, const EvalRequest& request,
                        const EvalOutcome& outcome) {
  const std::string id{evaluator.id()};
  if (id == "exact") return 0.0;  // same rational, same rounding
  if (id == "batch") return 1e-9;  // double kernel float error
  if (id == "compiled") return outcome.certificate_bound + 1e-12;
  if (id == "certified") return request.tolerance.to_double() + 1e-12;
  if (id == "mc") {
    // > 6 sigma for p(1-p)/trials <= 1/(4*trials): deterministic seed keeps
    // this reproducible, the slack keeps it honest.
    return 6.5 * std::sqrt(0.25 / static_cast<double>(request.trials));
  }
  ADD_FAILURE() << "engine '" << id << "' has no stated parity tolerance — add one here";
  return 0.0;
}

TEST(EngineParity, EveryEngineMatchesExactGroundTruth) {
  Registry& registry = Registry::instance();
  for (const Instance& instance : parity_instances()) {
    EvalRequest request = instance.request;
    request.trials = 40000;  // keep the Monte Carlo leg fast but meaningful
    for (const std::string_view id : registry.ids()) {
      const Evaluator& evaluator = registry.require(id);
      ASSERT_TRUE(evaluator.supports(request))
          << "engine '" << id << "' rejects the n=" << request.n << " golden instance";
      const EvalOutcome outcome = evaluator.evaluate(request);
      ASSERT_EQ(outcome.values.size(), instance.truth.size()) << "engine '" << id << "'";
      EXPECT_EQ(outcome.engine_id, id);
      const double tolerance = stated_tolerance(evaluator, request, outcome);
      for (std::size_t k = 0; k < instance.truth.size(); ++k) {
        const double exact = instance.truth[k].to_double();
        EXPECT_NEAR(outcome.values[k], exact, tolerance)
            << "engine '" << id << "', n=" << request.n << ", beta=" << request.betas[k];
      }
    }
  }
}

TEST(EngineParity, BatchIsBitwiseEqualToTheSerialKernel) {
  // The batch engine's documented contract: blocking and parallelism never
  // change a bit relative to the serial single-point
  // core::threshold_winning_probability, at every parity n.
  const Evaluator& batch = Registry::instance().require("batch");
  for (const Instance& instance : parity_instances()) {
    const EvalRequest& request = instance.request;
    const EvalOutcome amortized = batch.evaluate(request);
    ASSERT_EQ(amortized.values.size(), request.betas.size());
    const double t = request.t.to_double();
    for (std::size_t k = 0; k < request.betas.size(); ++k) {
      const std::vector<double> point(request.n, request.betas[k]);
      EXPECT_EQ(amortized.values[k], core::threshold_winning_probability(point, t))
          << "n=" << request.n << ", beta=" << request.betas[k];
    }
  }
}

TEST(EngineParity, CertificateBearingEnginesEncloseTheTruth) {
  Registry& registry = Registry::instance();
  for (const Instance& instance : parity_instances()) {
    for (const std::string_view id : {"exact", "certified"}) {
      const EvalOutcome outcome = registry.require(id).evaluate(instance.request);
      ASSERT_EQ(outcome.certificates.size(), instance.truth.size()) << "engine '" << id << "'";
      for (std::size_t k = 0; k < instance.truth.size(); ++k) {
        EXPECT_TRUE(outcome.certificates[k].enclosure().contains(instance.truth[k]))
            << "engine '" << id << "', n=" << instance.request.n << ", beta="
            << instance.request.betas[k] << ": enclosure excludes the exact value";
        EXPECT_TRUE(outcome.certificates[k].met_tolerance)
            << "engine '" << id << "', n=" << instance.request.n;
      }
    }
  }
}

TEST(EngineParity, CompiledCertificateBoundIsHonest) {
  // The compiled plan's a-priori bound must actually dominate the observed
  // error on the golden grid — otherwise the auto policy's tolerance check
  // is built on sand.
  const Evaluator& compiled = Registry::instance().require("compiled");
  for (const Instance& instance : parity_instances()) {
    const EvalOutcome outcome = compiled.evaluate(instance.request);
    ASSERT_TRUE(std::isfinite(outcome.certificate_bound));
    for (std::size_t k = 0; k < instance.truth.size(); ++k) {
      const double error = std::abs(outcome.values[k] - instance.truth[k].to_double());
      EXPECT_LE(error, outcome.certificate_bound + 1e-15)
          << "n=" << instance.request.n << ", beta=" << instance.request.betas[k];
    }
  }
}

}  // namespace
}  // namespace ddm::engine
