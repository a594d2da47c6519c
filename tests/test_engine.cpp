// ddm::engine — registry, selection policy, plan cache, and fault injection.
//
// The selection tests pin the auto policy (engine/policy.hpp): compiled for
// grids whose plan is resident and certified to the REQUEST tolerance, the
// certified O(n²) ladder for every other grid up to n = 64 — auto never
// lowers a plan — a named refusal past that cap, and every fallback visible
// in the Selection. Two
// property tests hold the tolerance contract over random (n, tolerance)
// draws and every auto answer on the paper's t = n/3 grids to its reported
// bound. The cache-fault tests pin satellite coverage:
// a fault that strikes during lowering must leave the plan cache
// unpoisoned — no entry, no counted miss — and the next call re-lowers
// successfully (matrix-run under DDM_THREADS=1/4 from tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/certified.hpp"
#include "core/nonoblivious.hpp"
#include "core/threshold_optimizer.hpp"
#include "util/certify.hpp"
#include "engine/engines.hpp"
#include "engine/evaluator.hpp"
#include "engine/plan_cache.hpp"
#include "engine/policy.hpp"
#include "engine/registry.hpp"
#include "obs/metrics_registry.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace ddm::engine {
namespace {

using util::Rational;

EvalRequest small_grid(std::uint32_t n, Rational t) {
  return EvalRequest::symmetric(n, std::move(t), {0.25, 0.5, 0.625, 0.75});
}

/// A `points`-point interior grid at the given request tolerance.
EvalRequest sweep_request(std::uint32_t n, Rational t, std::size_t points, Rational tolerance) {
  std::vector<double> betas;
  for (std::size_t k = 0; k < points; ++k) {
    betas.push_back(static_cast<double>(k + 1) / static_cast<double>(points + 1));
  }
  EvalRequest request = EvalRequest::symmetric(n, std::move(t), std::move(betas));
  request.tolerance = std::move(tolerance);
  return request;
}

// --- registry ------------------------------------------------------------

TEST(EngineRegistry, BuiltinsRegisteredAndSorted) {
  const auto ids = Registry::instance().ids();
  const std::vector<std::string_view> expected{"batch", "certified", "compiled", "exact",
                                               "mc"};
  EXPECT_EQ(ids, expected);
}

TEST(EngineRegistry, FindAndRequire) {
  Registry& registry = Registry::instance();
  ASSERT_NE(registry.find("batch"), nullptr);
  EXPECT_EQ(registry.find("batch")->id(), "batch");
  EXPECT_EQ(registry.find("bogus"), nullptr);
  EXPECT_EQ(&registry.require("batch"), registry.find("batch"));
  try {
    (void)registry.require("bogus");
    FAIL() << "require('bogus') did not throw";
  } catch (const Error& error) {
    // The message must list the registered ids so CLI users see the menu.
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("compiled"), std::string::npos);
  }
}

TEST(EngineRegistry, DuplicateRegistrationThrows) {
  Registry& registry = Registry::instance();
  EXPECT_THROW(register_builtin_engines(registry), Error);
  EXPECT_THROW(registry.register_engine(nullptr), Error);
}

TEST(EngineRegistry, DeterminismMetadata) {
  Registry& registry = Registry::instance();
  EXPECT_EQ(registry.require("batch").determinism(), Determinism::kDeterministic);
  EXPECT_EQ(registry.require("certified").determinism(), Determinism::kCertified);
  EXPECT_EQ(registry.require("mc").determinism(), Determinism::kRandomized);
  EXPECT_STREQ(to_string(Determinism::kDeterministic), "deterministic");
  EXPECT_STREQ(to_string(Determinism::kCertified), "certified");
  EXPECT_STREQ(to_string(Determinism::kRandomized), "randomized");
}

// --- selection policy ----------------------------------------------------

TEST(EngineSelect, ForcedIdIsHonored) {
  EnginePolicy policy;
  policy.engine = "batch";
  const Selection selection = select(policy, small_grid(4, Rational{4, 3}));
  EXPECT_EQ(selection.id(), "batch");
  EXPECT_FALSE(selection.auto_mode);
  EXPECT_FALSE(selection.fallback);
}

TEST(EngineSelect, ForcedUnknownIdThrows) {
  EnginePolicy policy;
  policy.engine = "bogus";
  EXPECT_THROW((void)select(policy, small_grid(3, Rational{1})), Error);
}

TEST(EngineSelect, ForcedUnsupportedRequestThrows) {
  EnginePolicy policy;
  policy.engine = "batch";  // the double kernel caps n at 20
  EXPECT_THROW((void)select(policy, small_grid(24, Rational{8})), Error);
}

TEST(EngineSelect, AutoPicksCompiledWhenCertificateMeetsTolerance) {
  PlanCache::instance().clear();
  (void)PlanCache::instance().get_or_lower(4, Rational{4, 3});  // make the plan resident
  const Selection selection = select(EnginePolicy{}, small_grid(4, Rational{4, 3}));
  EXPECT_EQ(selection.id(), "compiled");
  EXPECT_TRUE(selection.auto_mode);
  EXPECT_FALSE(selection.fallback);
  EXPECT_LE(selection.compiled_bound, EvalRequest{}.tolerance.to_double());
}

/// The compiled.lowerings counter (metrics must be enabled to count).
std::uint64_t lowerings() {
  for (const obs::MetricSample& sample : obs::Registry::instance().scrape()) {
    if (sample.name == "compiled.lowerings") return sample.counter_value;
  }
  return 0;
}

TEST(EngineSelect, AutoLowersNothing) {
  // A cold process answers every symmetric size from the certified ladder:
  // selecting and evaluating lowers no plan and counts no plan-cache miss,
  // at n <= 8 exactly as past it. Lowering is not a failed promise: no note.
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  PlanCache::instance().clear();
  const auto before = PlanCache::instance().stats();
  for (std::uint32_t n = 1; n <= 12; ++n) {
    const EvalRequest request = small_grid(n, Rational{n, 3});
    const Selection selection = select(EnginePolicy{}, request);
    EXPECT_EQ(selection.id(), "certified") << "n=" << n;
    EXPECT_FALSE(selection.fallback) << "n=" << n;
    EXPECT_TRUE(selection.note.empty()) << "n=" << n;
    EXPECT_TRUE(std::isnan(selection.compiled_bound)) << "n=" << n;
    EXPECT_EQ(selection.evaluator->evaluate(request).values.size(), 4u) << "n=" << n;
  }
  EXPECT_EQ(PlanCache::instance().stats().misses, before.misses);
  EXPECT_EQ(PlanCache::instance().size(), 0u);
  EXPECT_EQ(lowerings(), 0u);
  obs::set_metrics_enabled(false);
}

TEST(EngineSelect, AutoFallsBackVisiblyOnCertificateMiss) {
  // n = 8, t = 8/3 lowers fine, but its certificate (~8e-10) misses a
  // 1e-12 request tolerance: the resident plan is declined visibly, and the
  // certified ladder answers instead.
  (void)PlanCache::instance().get_or_lower(8, Rational{8, 3});
  EvalRequest strict = small_grid(8, Rational{8, 3});
  strict.tolerance = Rational{1, 1000000000000};
  const Selection selection = select(EnginePolicy{}, strict);
  EXPECT_EQ(selection.id(), "certified");
  EXPECT_TRUE(selection.fallback);
  EXPECT_NE(selection.note.find("exceeds tolerance"), std::string::npos) << selection.note;
  EXPECT_NE(selection.note.find("certified ladder"), std::string::npos) << selection.note;
  EXPECT_GT(selection.compiled_bound, 1e-12);
  // The default 1e-9 request tolerance admits the same plan.
  EXPECT_EQ(select(EnginePolicy{}, small_grid(8, Rational{8, 3})).id(), "compiled");
}

TEST(EngineSelect, AutoUsesResidentPlansPastTheNCap) {
  // A resident plan is used when it certifies the request tolerance, even
  // past the n where plans stop certifying the default 1e-9: n = 10,
  // t = 10/3 certifies ~5e-8.
  PlanCache::instance().clear();
  const EvalRequest relaxed = sweep_request(10, Rational{10, 3}, 16, Rational{1, 1000000});
  EXPECT_EQ(select(EnginePolicy{}, relaxed).id(), "certified");  // not resident: no lowering
  (void)PlanCache::instance().get_or_lower(10, Rational{10, 3});
  const Selection resident = select(EnginePolicy{}, relaxed);
  EXPECT_EQ(resident.id(), "compiled");
  EXPECT_LE(resident.compiled_bound, 1e-6);
  // The default 1e-9 rejects the same resident plan, visibly...
  const Selection strict =
      select(EnginePolicy{}, sweep_request(10, Rational{10, 3}, 16, Rational{1, 1000000000}));
  EXPECT_EQ(strict.id(), "certified");
  EXPECT_TRUE(strict.fallback);
  EXPECT_NE(strict.note.find("certificate"), std::string::npos) << strict.note;
  // ...and relaxing the request tolerance readmits compiled.
  EXPECT_EQ(select(EnginePolicy{}, sweep_request(10, Rational{10, 3}, 16, Rational{1, 1000})).id(),
            "compiled");
}

TEST(EngineSelect, NoGridSizeForcesCompiledPastTolerance) {
  // Residency is the only pull towards compiled, and the grid size does not
  // strengthen it: the resident (10, 10/3) plan (~5e-8) is declined visibly
  // at 1e-9 for one point as for 4096, and readmitted at 1e-3 for each.
  (void)PlanCache::instance().get_or_lower(10, Rational{10, 3});
  for (const std::size_t points : {std::size_t{1}, std::size_t{16}, std::size_t{4096}}) {
    const Selection strict = select(
        EnginePolicy{}, sweep_request(10, Rational{10, 3}, points, Rational{1, 1000000000}));
    EXPECT_EQ(strict.id(), "certified") << points << " points";
    EXPECT_TRUE(strict.fallback) << points << " points";
    EXPECT_NE(strict.note.find("certificate"), std::string::npos) << strict.note;
    const Selection relaxed =
        select(EnginePolicy{}, sweep_request(10, Rational{10, 3}, points, Rational{1, 1000}));
    EXPECT_EQ(relaxed.id(), "compiled") << points << " points";
  }
}

TEST(EngineSelect, AutoNeverViolatesTheToleranceContract) {
  // The one auto rule as a property: over random n and request tolerances,
  // auto answers from a resident plan exactly when its certificate is <= the
  // request tolerance, and from the certified ladder otherwise.
  for (std::uint32_t n = 1; n <= 8; ++n) {
    (void)PlanCache::instance().get_or_lower(n, Rational{n, 3});
  }
  (void)PlanCache::instance().get_or_lower(10, Rational{10, 3});
  std::mt19937 rng(990817);
  const Rational tolerances[] = {Rational{1, 1000000000000}, Rational{1, 1000000000},
                                 Rational{1, 1000000}, Rational{1, 1000}};
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 1 + rng() % 14;
    const Rational t{n, 3};
    const EvalRequest request = sweep_request(n, t, 1 + rng() % 64, tolerances[rng() % 4]);
    const Selection selection = select(EnginePolicy{}, request);
    ASSERT_NE(selection.evaluator, nullptr);
    EXPECT_TRUE(selection.evaluator->supports(request));
    const auto plan = PlanCache::instance().find_resident(n, t);
    const bool admissible =
        plan != nullptr && plan->max_error_bound() <= request.tolerance.to_double();
    EXPECT_EQ(selection.id(), admissible ? "compiled" : "certified")
        << "round " << round << ": n=" << n << " tol=" << request.tolerance;
  }
}

TEST(EngineSelect, AutoKeepsTheCertifiedCapForSymmetricRequests) {
  // Past kCertifiedAutoMaxN (ddm_serve's admission cap too) auto refuses
  // before doing any work, naming the cap and the engines that serve such
  // requests.
  EXPECT_EQ(kCertifiedAutoMaxN, 1000u);
  try {
    (void)select(EnginePolicy{}, small_grid(kCertifiedAutoMaxN + 1, Rational{22}));
    FAIL() << "auto selected an engine past the certified cap";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("n <= 1000"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine=exact|certified"), std::string::npos) << what;
  }
  EXPECT_EQ(select(EnginePolicy{}, small_grid(kCertifiedAutoMaxN, Rational{21})).id(),
            "certified");
}

TEST(EngineSelect, AutoKeepsTheExactRungCapForTightTolerances) {
  // A tolerance below tier 0's worst-case bound lets a point escalate to the
  // exact rung, minutes a point at n = 500. auto allows that up to
  // kExactRungAutoMaxN and refuses it past, by name, before any work.
  EXPECT_EQ(kExactRungAutoMaxN, 64u);
  const Rational tight{1, 10000000000000};  // 1e-13
  const Rational t{500, 3};
  ASSERT_LT(tight.to_double(), core::SymmetricCertifier(500, t).tier0_worst_bound());
  auto request = small_grid(500, t);
  request.tolerance = tight;
  try {
    (void)select(EnginePolicy{}, request);
    FAIL() << "auto sent n = 500 at 1e-13 to the exact rung";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("n <= 64"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine=exact|certified"), std::string::npos) << what;
  }
  EXPECT_EQ(select(EnginePolicy{}, small_grid(500, t)).id(), "certified");
  auto at_cap = small_grid(kExactRungAutoMaxN, Rational{64, 3});
  at_cap.tolerance = Rational{1, 1000000000000000};  // 1e-15
  EXPECT_EQ(select(EnginePolicy{}, at_cap).id(), "certified");
}

// --- the auto contract on the paper's workload (property test) -----------

// For t = n/3 and beta on a 1/1024 grid over [0.05, 0.95] (strided past
// n = 24, where each exact value costs milliseconds), every auto
// answer lies within its reported bound of the exact rational value, the
// bound meets the default 1e-9 tolerance, the batch kernel never answers, and
// no plan is lowered at any n.
void expect_auto_answers_within_their_bounds(std::uint32_t n, const std::vector<double>& betas) {
  const Rational t{n, 3};
  const EvalRequest request = EvalRequest::symmetric(n, t, betas);
  const auto before = PlanCache::instance().stats();
  const Selection selection = select(EnginePolicy{}, request);
  const EvalOutcome outcome = selection.evaluator->evaluate(request);
  EXPECT_NE(outcome.engine_id, "batch") << "n=" << n;
  EXPECT_EQ(PlanCache::instance().stats().misses, before.misses) << "n=" << n;
  std::vector<Rational> exact(betas.size());
  util::parallel_for(0, betas.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      exact[k] =
          core::symmetric_threshold_winning_probability(n, util::exact_rational(betas[k]), t);
    }
  });
  ASSERT_EQ(outcome.values.size(), betas.size());
  for (std::size_t k = 0; k < betas.size(); ++k) {
    const double bound = outcome.bound_at(k);
    EXPECT_LE(bound, 1e-9) << "n=" << n << " beta=" << betas[k];
    const Rational error = (util::exact_rational(outcome.values[k]) - exact[k]).abs();
    EXPECT_TRUE(error <= util::exact_rational(bound))
        << "n=" << n << " beta=" << betas[k] << " error " << error.to_double() << " > bound "
        << bound;
  }
}

TEST(EngineAutoSymmetric, EveryAnswerLiesWithinItsBound) {
  for (const std::uint32_t n : {4u, 8u, 10u, 12u, 14u, 16u, 20u, 24u, 32u, 48u, 64u}) {
    const int stride = n <= 24 ? 1 : 32;
    std::vector<double> betas;
    for (int k = 52; k <= 972; k += stride) betas.push_back(static_cast<double>(k) / 1024.0);
    expect_auto_answers_within_their_bounds(n, betas);
  }
}

// Spot points at n = 128 and 256, where each exact value is an integer sum
// of about 0.1 s.
TEST(EngineAutoSymmetric, SpotPointsAtLargeNLieWithinTheirBounds) {
  expect_auto_answers_within_their_bounds(128, {310.0 / 1024, 467.0 / 1024, 724.0 / 1024});
  expect_auto_answers_within_their_bounds(256, {467.0 / 1024, 724.0 / 1024});
}

// At t >= n no bin can overflow, so P = 1 at every beta: auto answers each
// point with the exact 1 and a zero bound, at any such t, refusing none.
TEST(EngineAutoSymmetric, CapacityAtLeastNIsExactlyOne) {
  std::vector<double> betas;
  for (int k = 0; k <= 16; ++k) betas.push_back(static_cast<double>(k) / 16.0);
  for (const Rational& t : {Rational{1000}, Rational{3000}}) {
    const EvalRequest request = EvalRequest::symmetric(1000, t, betas);
    const Selection selection = select(EnginePolicy{}, request);
    const EvalOutcome outcome = selection.evaluator->evaluate(request);
    EXPECT_EQ(outcome.engine_id, "certified") << "t=" << t;
    ASSERT_EQ(outcome.values.size(), betas.size());
    for (std::size_t k = 0; k < betas.size(); ++k) {
      EXPECT_EQ(outcome.values[k], 1.0) << "t=" << t << " beta=" << betas[k];
      EXPECT_EQ(outcome.bound_at(k), 0.0) << "t=" << t << " beta=" << betas[k];
    }
  }
}

// --- plan cache ----------------------------------------------------------

TEST(PlanCacheTest, MissThenHitSharesOnePlan) {
  PlanCache cache;
  const auto first = cache.get_or_lower(4, Rational{4, 3});
  const auto second = cache.get_or_lower(4, Rational{4, 3});
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DistinctInstancesGetDistinctEntries) {
  PlanCache cache;
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});
  (void)cache.get_or_lower(3, Rational{3, 2});  // same n, different t
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PlanCacheTest, LruEvictionKeepsRecentlyUsed) {
  PlanCache cache(2);
  (void)cache.get_or_lower(2, Rational{2, 3});
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(2, Rational{2, 3});  // refresh n=2 to the front
  (void)cache.get_or_lower(4, Rational{4, 3});  // evicts n=3 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto before = cache.stats();
  (void)cache.get_or_lower(2, Rational{2, 3});  // still cached
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  (void)cache.get_or_lower(3, Rational{1});  // re-lowered
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(PlanCacheTest, EvictedPlanStaysValidForHolders) {
  PlanCache cache(1);
  const auto held = cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});  // evicts the held plan
  EXPECT_EQ(cache.size(), 1u);
  // The shared_ptr handle keeps the evicted plan alive and usable.
  const double exact = core::symmetric_threshold_winning_probability(
                           3, Rational{5, 8}, Rational{1})
                           .to_double();
  EXPECT_NEAR(held->eval(0.625), exact, held->max_error_bound() + 1e-12);
}

TEST(PlanCacheTest, SetCapacityShrinksAndClearEmpties) {
  PlanCache cache;
  (void)cache.get_or_lower(2, Rational{2, 3});
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, FindResidentNeverLowers) {
  PlanCache cache;
  EXPECT_EQ(cache.find_resident(4, Rational{4, 3}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);  // nothing was produced, nothing counted
  const auto lowered = cache.get_or_lower(4, Rational{4, 3});
  const auto found = cache.find_resident(4, Rational{8, 6});
  EXPECT_EQ(found.get(), lowered.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, NonCanonicalRationalsShareOneEntry) {
  // Regression: the cache key is built from t's numerator/denominator, so it
  // is only correct if equal rationals always spell identically. 2/6, 1/3,
  // and -1/-3 are one value and must be one entry — a duplicate would mean
  // duplicated lowering work and a cache that lies about its size.
  PlanCache cache;
  const auto a = cache.get_or_lower(3, Rational{2, 6});
  const auto b = cache.get_or_lower(3, Rational{1, 3});
  const auto c = cache.get_or_lower(3, Rational{-1, -3});
  const auto d = cache.get_or_lower(3, Rational::parse("3/9"));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(a.get(), d.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(PlanCacheTest, LoweringRacesAreCountedNotSilent) {
  // Four raw threads released together onto one cold key, with an injected
  // pre-lowering delay so every thread reaches the miss path before the
  // first insert lands. Losers adopt the winner's plan; the discarded
  // lowerings must be COUNTED: races == misses − entries inserted holds for
  // any interleaving, so a fleet stuck re-lowering concurrently is visible.
  constexpr std::size_t kThreads = 4;
  PlanCache cache;
  util::fault::set_plan(util::fault::Plan::parse("delay@0x4:50ms"));
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const poly::CompiledPiecewise>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      plans[i] = cache.get_or_lower(6, Rational{2});
    });
  }
  for (std::thread& thread : threads) thread.join();
  util::fault::clear_plan();

  for (const auto& plan : plans) EXPECT_EQ(plan.get(), plans[0].get());
  const auto stats = cache.stats();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  // Exactly one miss inserted; every other miss lost the race.
  EXPECT_EQ(stats.races, stats.misses - 1);
  // The 50 ms pre-lowering window makes a genuinely sequential interleaving
  // implausible; at least one race must have been observed and counted.
  EXPECT_GE(stats.races, 1u);
}

TEST(PlanCacheTest, ConcurrentLookupsShareOnePlan) {
  PlanCache cache;
  std::vector<std::shared_ptr<const poly::CompiledPiecewise>> plans(16);
  util::ParallelOptions options;
  options.grain = 1;
  util::parallel_for(
      0, plans.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) plans[i] = cache.get_or_lower(5, Rational{5, 3});
      },
      options);
  EXPECT_EQ(cache.size(), 1u);
  // Losers of a lowering race adopt the winner's plan: one shared copy.
  for (const auto& plan : plans) EXPECT_EQ(plan.get(), plans[0].get());
}

// --- fault injection (matrix-run under DDM_THREADS=1/4) ------------------

TEST(EngineCacheFault, ThrowDuringLoweringLeavesCacheUnpoisoned) {
  PlanCache cache;
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  EXPECT_THROW((void)cache.get_or_lower(6, Rational{2}), util::fault::TransientFault);
  // The fault struck before any cache mutation: no entry, nothing counted.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // The directive is spent; the retry re-lowers successfully.
  const auto plan = cache.get_or_lower(6, Rational{2});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  util::fault::clear_plan();
}

TEST(EngineCacheFault, ForcedCompiledPropagatesTheFault) {
  PlanCache::instance().clear();
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  EnginePolicy policy;
  policy.engine = "compiled";
  const Selection selection = select(policy, small_grid(6, Rational{7, 3}));
  EXPECT_THROW((void)selection.evaluator->evaluate(small_grid(6, Rational{7, 3})),
               util::fault::TransientFault);
  util::fault::clear_plan();
  const auto outcome = selection.evaluator->evaluate(small_grid(6, Rational{7, 3}));
  EXPECT_EQ(outcome.values.size(), 4u);
}

}  // namespace
}  // namespace ddm::engine
