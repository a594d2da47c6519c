// Tests for the resilience layer: deadlines and cooperative cancellation
// (util/resilience.hpp) threaded through the parallel engine, the batch
// kernel, the escalation ladder, and the engine seam; deterministic retry
// backoff (RetryPolicy); strict DDM_SERVE_*-style env parsing
// (util/env.hpp); and the degradation chain of engine::evaluate_resilient
// (compiled -> certified under an injected lowering fault, certified -> mc under
// an exhausted parallel region). The ctest registrations in
// tests/CMakeLists.txt re-run the degradation-chain cases under
// DDM_THREADS=1 and DDM_THREADS=4.
#include "util/resilience.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "core/nonoblivious.hpp"
#include "engine/registry.hpp"
#include "engine/resilient.hpp"
#include "util/certify.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/interval.hpp"
#include "util/parallel.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using namespace std::chrono_literals;

TEST(CancelTokenTest, DefaultIsInertCreatedFires) {
  util::CancelToken inert;
  EXPECT_FALSE(inert.armed());
  inert.cancel();  // no-op, must not crash
  EXPECT_FALSE(inert.cancel_requested());

  util::CancelToken armed = util::CancelToken::create();
  util::CancelToken alias = armed;  // copies share the flag
  EXPECT_TRUE(armed.armed());
  EXPECT_FALSE(armed.cancel_requested());
  alias.cancel();
  EXPECT_TRUE(armed.cancel_requested());
}

TEST(DeadlineTest, UnsetNeverExpiresAndSetClamps) {
  util::Deadline unset;
  EXPECT_FALSE(unset.is_set());
  EXPECT_FALSE(unset.expired());
  EXPECT_EQ(unset.remaining(), std::chrono::nanoseconds::max());

  const util::Deadline spent = util::Deadline::after(-1ms);
  EXPECT_TRUE(spent.is_set());
  EXPECT_TRUE(spent.expired());
  EXPECT_EQ(spent.remaining(), std::chrono::nanoseconds::zero());

  const util::Deadline generous = util::Deadline::after(1h);
  EXPECT_FALSE(generous.expired());
  EXPECT_GT(generous.remaining(), 30min);
}

TEST(RunControlTest, CancellationWinsOverExpiredDeadline) {
  util::RunControl control;
  EXPECT_FALSE(control.engaged());
  EXPECT_EQ(control.should_stop(), util::StopReason::kNone);

  control.deadline = util::Deadline::after(-1ms);
  EXPECT_TRUE(control.engaged());
  EXPECT_EQ(control.should_stop(), util::StopReason::kDeadline);

  control.token = util::CancelToken::create();
  control.token.cancel();
  EXPECT_EQ(control.should_stop(), util::StopReason::kCancelled);
}

TEST(RetryPolicyTest, BackoffIsDeterministicExponentialAndClamped) {
  util::RetryPolicy policy;
  policy.base_delay = 10ms;
  policy.growth = 2.0;
  policy.max_delay = 35ms;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.delay_before(1, 0), 10ms);
  EXPECT_EQ(policy.delay_before(2, 0), 20ms);
  EXPECT_EQ(policy.delay_before(3, 0), 35ms);  // 40ms clamped
  EXPECT_EQ(policy.delay_before(9, 0), 35ms);

  // Jitter: a pure function of (seed, stream, attempt) inside the band.
  policy.jitter = 0.25;
  const auto once = policy.delay_before(2, 7);
  EXPECT_EQ(once, policy.delay_before(2, 7));
  EXPECT_GE(once, 15ms);
  EXPECT_LT(once, 25ms);
  EXPECT_NE(policy.delay_before(2, 8), once);  // streams decorrelate

  // The library default never sleeps: zero base delay short-circuits.
  util::RetryPolicy immediate;
  EXPECT_EQ(immediate.delay_before(1, 0), std::chrono::nanoseconds::zero());
  EXPECT_EQ(immediate.delay_before(5, 3), std::chrono::nanoseconds::zero());
}

TEST(RetryPolicyTest, SleepWithDeadlineReturnsEarly) {
  const auto start = std::chrono::steady_clock::now();
  util::sleep_with_deadline(10s, util::Deadline::after(5ms));
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
  util::sleep_with_deadline(-5ms, util::Deadline{});  // non-positive: no-op
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
}

TEST(ParallelControlTest, MidRunCancellationReportsPartialProgress) {
  for (const unsigned workers : {1u, 4u}) {
    util::ParallelOptions options;
    options.grain = 1;
    options.max_workers = workers;
    options.label = "cancel_region";
    options.control.token = util::CancelToken::create();
    std::atomic<std::size_t> executed{0};
    const util::CancelToken token = options.control.token;
    try {
      util::parallel_for(
          0, 64,
          [&executed, &token](std::size_t, std::size_t) {
            executed.fetch_add(1);
            token.cancel();  // first chunk pulls the plug for everyone
          },
          options);
      FAIL() << "expected Cancelled (workers=" << workers << ")";
    } catch (const Cancelled& error) {
      EXPECT_EQ(error.label(), "cancel_region");
      EXPECT_EQ(error.total(), 64u);
      EXPECT_GE(error.completed(), 1u);
      EXPECT_LT(error.completed(), 64u);
      EXPECT_EQ(error.completed(), executed.load());
    }
  }
}

TEST(ParallelControlTest, ExpiredDeadlineStopsBeforeAnyChunk) {
  for (const unsigned workers : {1u, 4u}) {
    util::ParallelOptions options;
    options.grain = 4;
    options.max_workers = workers;
    options.label = "deadline_region";
    options.control.deadline = util::Deadline::after(-1ns);
    std::atomic<std::size_t> executed{0};
    try {
      util::parallel_for(
          0, 32, [&executed](std::size_t, std::size_t) { executed.fetch_add(1); }, options);
      FAIL() << "expected DeadlineExceeded (workers=" << workers << ")";
    } catch (const DeadlineExceeded& error) {
      EXPECT_EQ(error.label(), "deadline_region");
      EXPECT_EQ(error.completed(), 0u);
      EXPECT_EQ(error.total(), 8u);  // 32 indices / grain 4
      // The human-readable message carries the label too (regression: the
      // ctor once moved `label` into the base while the message expression
      // still read it — unspecified evaluation order left it empty).
      EXPECT_NE(std::string(error.what()).find("deadline_region"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(executed.load(), 0u);
  }
}

TEST(ParallelControlTest, BatchKernelSurfacesDeadline) {
  std::vector<std::vector<double>> points;
  for (int k = 0; k < 24; ++k) {
    points.push_back(std::vector<double>(4, 0.05 + 0.03 * static_cast<double>(k)));
  }
  util::RunControl control;
  control.deadline = util::Deadline::after(-1ms);
  EXPECT_THROW((void)core::threshold_winning_probability_batch(points, 1.0, control),
               DeadlineExceeded);
  // And the same call without control still answers in full.
  EXPECT_EQ(core::threshold_winning_probability_batch(points, 1.0).size(), points.size());
}

TEST(LadderControlTest, PollsBeforeEveryRung) {
  const std::vector<TierSpec> tiers = {
      {EvalTier::kCompensatedDouble,
       [] { return util::RationalInterval(util::Rational{0}, util::Rational{1}); }},
      {EvalTier::kExact, [] { return util::RationalInterval(util::Rational{1, 2}); }},
  };

  EvalPolicy spent;
  spent.control.deadline = util::Deadline::after(-1ms);
  try {
    (void)run_escalation_ladder(spent, "ladder_test", tiers);
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& error) {
    EXPECT_EQ(error.completed(), 0u);  // no tier attempted
    EXPECT_EQ(error.total(), tiers.size());
  }

  // Cancel after the first (too-wide) rung: the pre-rung poll on the second
  // tier fires with one tier attempted.
  EvalPolicy cancelling;
  cancelling.control.token = util::CancelToken::create();
  const util::CancelToken token = cancelling.control.token;
  const std::vector<TierSpec> cancelling_tiers = {
      {EvalTier::kCompensatedDouble,
       [token] {
         token.cancel();
         return util::RationalInterval(util::Rational{0}, util::Rational{1});
       }},
      {EvalTier::kExact, [] { return util::RationalInterval(util::Rational{1, 2}); }},
  };
  try {
    (void)run_escalation_ladder(cancelling, "ladder_test", cancelling_tiers);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& error) {
    EXPECT_EQ(error.completed(), 1u);
    EXPECT_EQ(error.total(), cancelling_tiers.size());
  }
}

TEST(EngineControlTest, EveryEngineSurfacesTypedStops) {
  for (const char* id : {"batch", "mc", "certified", "compiled"}) {
    engine::EvalRequest request =
        engine::EvalRequest::symmetric(6, util::Rational{2}, {0.30, 0.40, 0.50});
    request.trials = 2000;
    const engine::Evaluator& evaluator = engine::Registry::instance().require(id);
    ASSERT_TRUE(evaluator.supports(request)) << id;

    request.control.deadline = util::Deadline::after(-1ms);
    EXPECT_THROW((void)evaluator.evaluate(request), DeadlineExceeded) << id;

    request.control = {};
    request.control.token = util::CancelToken::create();
    request.control.token.cancel();
    EXPECT_THROW((void)evaluator.evaluate(request), Cancelled) << id;

    request.control = {};
    EXPECT_EQ(evaluator.evaluate(request).values.size(), 3u) << id;
  }
}

TEST(EnvParseTest, StrictRangeCheckedNamingTheVariable) {
  EXPECT_EQ(util::parse_env_u64("DDM_SERVE_QUEUE", nullptr, 1, 100, 64), 64u);
  EXPECT_EQ(util::parse_env_u64("DDM_SERVE_QUEUE", "17", 1, 100, 64), 17u);
  for (const char* bad : {"", "  ", "abc", "17q", "0x11", "-3", "101", "0"}) {
    try {
      (void)util::parse_env_u64("DDM_SERVE_QUEUE", bad, 1, 100, 64);
      FAIL() << "expected Error for '" << bad << "'";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("DDM_SERVE_QUEUE"), std::string::npos) << bad;
    }
  }
}

// --- the degradation chain -------------------------------------------------

class ResilientEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::clear_plan(); }
};

TEST_F(ResilientEngineTest, HealthyRequestsMatchThePlainEngineBitwise) {
  const engine::EvalRequest request =
      engine::EvalRequest::symmetric(5, util::Rational{2}, {0.31, 0.44, 0.52, 0.61});
  engine::ResilientOptions options;
  const engine::EvalOutcome resilient = engine::evaluate_resilient(options, request);
  const engine::Selection selection = engine::select(options.policy, request);
  const engine::EvalOutcome plain = selection.evaluator->evaluate(request);
  EXPECT_FALSE(resilient.degraded);
  EXPECT_TRUE(resilient.degradation_note.empty());
  EXPECT_EQ(resilient.engine_id, plain.engine_id);
  EXPECT_EQ(resilient.values, plain.values);  // bitwise: same engine, same path
}

TEST_F(ResilientEngineTest, CancelledRequestsNeverDegrade) {
  engine::EvalRequest request =
      engine::EvalRequest::symmetric(6, util::Rational{2}, {0.35, 0.45});
  engine::ResilientOptions options;
  options.control.token = util::CancelToken::create();
  options.control.token.cancel();
  request.control = options.control;
  EXPECT_THROW((void)engine::evaluate_resilient(options, request), Cancelled);
}

TEST_F(ResilientEngineTest, LoweringFaultDegradesCompiledToCertified) {
  // Use an (n, t) pair no other test compiles, so the plan cache misses and
  // lowering actually runs — the injected fault strikes
  // engine::kLoweringFaultChunk before the plan exists.
  const util::Rational t{5, 2};
  engine::EvalRequest request =
      engine::EvalRequest::symmetric(7, t, {0.32, 0.41, 0.53, 0.62, 0.68});
  engine::ResilientOptions options;
  options.policy.engine = "compiled";

  const engine::EvalOutcome certified_reference =
      engine::Registry::instance().require("certified").evaluate(request);

  const auto before = util::fault::counters();
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  const engine::EvalOutcome degraded = engine::evaluate_resilient(options, request);
  EXPECT_EQ(util::fault::counters().throws_injected, before.throws_injected + 1);

  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.engine_id, "certified");
  EXPECT_NE(degraded.degradation_note.find("compiled"), std::string::npos);
  EXPECT_NE(degraded.degradation_note.find("certified"), std::string::npos);
  EXPECT_EQ(degraded.values, certified_reference.values);  // honest, bit-identical
  // Every degraded answer carries its bound, and the bound holds.
  ASSERT_EQ(degraded.certificates.size(), request.betas.size());
  for (std::size_t k = 0; k < request.betas.size(); ++k) {
    const double exact = core::symmetric_threshold_winning_probability(
                             7, util::exact_rational(request.betas[k]), t)
                             .to_double();
    EXPECT_LE(std::abs(degraded.values[k] - exact), degraded.certificates[k].error_bound())
        << "beta=" << request.betas[k];
  }

  // With the fault plan consumed, the same options recover the full engine.
  const engine::EvalOutcome healthy = engine::evaluate_resilient(options, request);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(healthy.engine_id, "compiled");
}

TEST_F(ResilientEngineTest, ExhaustedCertifiedRegionDegradesToMonteCarlo) {
  engine::EvalRequest request =
      engine::EvalRequest::symmetric(6, util::Rational{2}, {0.37, 0.47, 0.57});
  request.trials = 5000;
  engine::ResilientOptions options;
  options.policy.engine = "certified";

  const engine::EvalOutcome mc_reference =
      engine::Registry::instance().require("mc").evaluate(request);

  // Chunk 0 of the "engine.certified" region throws on every in-region
  // attempt (1 + default max_retries of 2), so the region fails with
  // ParallelError; with zero request-level retries the chain falls to mc.
  util::fault::set_plan(util::fault::Plan::parse("throw@0x3"));
  const engine::EvalOutcome degraded = engine::evaluate_resilient(options, request);
  EXPECT_FALSE(util::fault::active()) << "plan should be fully consumed";

  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.engine_id, "mc");
  EXPECT_NE(degraded.degradation_note.find("certified"), std::string::npos);
  EXPECT_EQ(degraded.values, mc_reference.values);  // seeded: bit-identical
}

TEST_F(ResilientEngineTest, RequestLevelRetryRecoversBeforeDegrading) {
  engine::EvalRequest request =
      engine::EvalRequest::symmetric(6, util::Rational{2}, {0.37, 0.47, 0.57});
  engine::ResilientOptions options;
  options.policy.engine = "certified";
  options.retry.max_retries = 1;  // immediate retry (base_delay stays zero)

  const engine::EvalOutcome certified_reference =
      engine::Registry::instance().require("certified").evaluate(request);

  // Three throws exhaust the first region attempt; the request-level retry
  // runs a clean region, so the answer comes from the requested engine.
  util::fault::set_plan(util::fault::Plan::parse("throw@0x3"));
  const engine::EvalOutcome recovered = engine::evaluate_resilient(options, request);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.engine_id, "certified");
  EXPECT_EQ(recovered.values, certified_reference.values);
}

}  // namespace
}  // namespace ddm
