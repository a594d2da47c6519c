// engines.cpp — the built-in Evaluator adapters.
//
// Each adapter wraps one pre-existing backend behind the engine seam without
// changing a single floating-point operation: the values every forced-engine
// CLI row prints are pinned by tests/golden_cli/. The adapters are
// stateless; compiled plans live in the shared PlanCache.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/certified.hpp"
#include "core/deviating.hpp"
#include "core/heterogeneous.hpp"
#include "core/irwin_hall_sum.hpp"
#include "core/nonoblivious.hpp"
#include "core/protocol.hpp"
#include "engine/engines.hpp"
#include "engine/evaluator.hpp"
#include "engine/plan_cache.hpp"
#include "prob/rng.hpp"
#include "sim/monte_carlo.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

/// The O(3^n) double kernel caps n at 20 (core/nonoblivious.cpp).
constexpr std::uint32_t kKernelMaxN = 20;

/// Tier-0 work per chunk of a certified grid, in the recurrence updates of
/// core::symmetric_threshold_sum_updates plus kOuterTermUpdates for each of
/// the n + 1 outer terms: 2^18 of them take about 100 µs. The fastest rate
/// measured was 0.38 ns per update (n = 256). At small n each outer term's
/// fixed work (and the point's bound) outweighs its updates: one certified
/// point took 308 ns at n = 4 (20 updates), 355 ns at n = 8 (91) and 643 ns
/// at n = 16 (518), about 160, 94 and 69 updates' worth per outer term (one
/// pinned core of a 4-vCPU x86-64 VM, RelWithDebInfo). With 128 per term a
/// chunk takes 62–122 µs at n = 4..16 (397 points at n = 4).
constexpr double kChunkUpdates = 262144.0;
constexpr double kOuterTermUpdates = 128.0;

[[nodiscard]] std::size_t tier0_points_per_chunk(std::uint32_t n) {
  const double updates = core::symmetric_threshold_sum_updates(n) +
                         kOuterTermUpdates * (static_cast<double>(n) + 1.0);
  return static_cast<std::size_t>(std::ceil(kChunkUpdates / updates));
}

/// The exact rational image of grid point k: the caller's exact grid when
/// provided, else the (exactly representable) double itself.
[[nodiscard]] util::Rational exact_point(const EvalRequest& request, std::size_t k) {
  if (k < request.exact_betas.size()) return request.exact_betas[k];
  return util::exact_rational(request.betas[k]);
}

/// Largest n the exact/certified generalized-scenario paths accept: the
/// heterogeneous Theorem 5.1 and the deviating worst case both run O(2^n)
/// inclusion-exclusion sums (core/heterogeneous.cpp, core/deviating.cpp).
constexpr std::uint32_t kScenarioExactMaxN = 14;

/// True when the request is a well-formed instance of its generalized
/// scenario that the exact rational paths can serve. The homogeneous default
/// never reaches this helper — each engine's supports() keeps its original
/// predicate for the default scenario, byte for byte.
[[nodiscard]] bool supports_scenario_exact(const EvalRequest& request) {
  const std::uint32_t n = request.n;
  if (n < 1 || n > kScenarioExactMaxN) return false;
  switch (request.scenario.kind()) {
    case Scenario::Kind::kHomogeneous:
      return true;
    case Scenario::Kind::kHeterogeneous:
      return request.scenario.ranges().size() == n;
    case Scenario::Kind::kDeviating:
      return request.scenario.deviators() < n;
  }
  return false;
}

/// The exact per-player thresholds of point k under a heterogeneous
/// scenario: the grid beta is RELATIVE (a_i = beta * c_i), so the [0,1] grid
/// stays meaningful for any ranges.
[[nodiscard]] std::vector<util::Rational> heterogeneous_point(const EvalRequest& request,
                                                              std::size_t k) {
  const std::vector<util::Rational>& ranges = request.scenario.ranges();
  const util::Rational beta = exact_point(request, k);
  std::vector<util::Rational> thresholds;
  thresholds.reserve(ranges.size());
  for (const util::Rational& range : ranges) thresholds.push_back(beta * range);
  return thresholds;
}

/// One exact rational evaluation of point k under the request's generalized
/// scenario (heterogeneous or deviating). Shared by the exact and certified
/// adapters: the generalized formulas are already exact, so "certified"
/// means a width-0 exact-tier enclosure.
[[nodiscard]] util::Rational exact_scenario_value(const EvalRequest& request, std::size_t k) {
  if (request.scenario.kind() == Scenario::Kind::kHeterogeneous) {
    const std::vector<util::Rational> thresholds = heterogeneous_point(request, k);
    return core::heterogeneous_threshold_winning_probability(thresholds,
                                                             request.scenario.ranges(),
                                                             request.t);
  }
  return core::worst_case_deviating_winning_probability(
      request.n, request.scenario.deviators(), exact_point(request, k), request.t);
}

/// Exact-tier certificate for an exactly computed value.
[[nodiscard]] CertifiedValue exact_certificate(util::Rational value) {
  CertifiedValue certificate{util::RationalInterval{std::move(value)}};
  certificate.tier = EvalTier::kExact;
  certificate.met_tolerance = true;
  return certificate;
}

/// exact — exact Rational Theorem 5.1 on the symmetric grid. O(n²) terms per
/// point, so it scales to any n; the answer is the ground truth the parity
/// suite measures every other engine against.
class ExactEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "exact"; }
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  std::string_view describe() const noexcept override {
    return "exact rational Theorem 5.1 (symmetric, O(n^2) terms per point; "
           "generalized scenarios up to n = 14)";
  }
  bool supports(const EvalRequest& request) const override {
    if (request.scenario.is_default()) return request.n >= 1;
    return supports_scenario_exact(request);
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'exact' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    EvalOutcome outcome;
    outcome.engine_id = "exact";
    outcome.certificate_bound = 0.0;
    outcome.values.resize(request.size(), 0.0);
    outcome.certificates.resize(request.size());
    util::ParallelOptions options;
    options.grain = 1;
    options.label = "engine.exact";
    options.control = request.control;
    util::parallel_for(
        0, request.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const util::Rational value =
                request.scenario.is_default()
                    ? core::symmetric_threshold_winning_probability(
                          request.n, exact_point(request, k), request.t, request.control)
                    : exact_scenario_value(request, k);
            outcome.values[k] = value.to_double();
            outcome.certificates[k] = exact_certificate(value);
          }
        },
        options);
    return outcome;
  }
};

/// batch — the general Theorem 5.1 Gray-code double kernel, O(3^n) per
/// point, fanned across the thread pool in blocks of
/// core::kThresholdBatchBlock points. Only a forced --engine=batch reaches it.
class BatchEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "batch"; }
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  std::string_view describe() const noexcept override {
    return "parallel O(3^n) Gray-code double kernel (n <= 20, homogeneous only)";
  }
  bool supports(const EvalRequest& request) const override {
    return request.scenario.is_default() && request.n >= 1 && request.n <= kKernelMaxN;
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    EvalOutcome outcome;
    outcome.engine_id = "batch";
    // Point construction mirrors the pre-engine sweep loop exactly
    // (points[k].assign(n, beta)) — pinned byte-identical by golden tests.
    std::vector<std::vector<double>> points(request.betas.size());
    for (std::size_t k = 0; k < request.betas.size(); ++k) {
      points[k].assign(request.n, request.betas[k]);
    }
    outcome.values = core::threshold_winning_probability_batch(points, request.t.to_double(),
                                                               request.control);
    return outcome;
  }
};

/// compiled — certified Horner plans through the process-wide LRU plan
/// cache: repeated sweeps, checkpoint blocks, and optimizer runs re-use one
/// lowering per (n, t).
class CompiledEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "compiled"; }
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  std::string_view describe() const noexcept override {
    return "compiled Horner plan (certified lowering, LRU plan cache, homogeneous only)";
  }
  bool supports(const EvalRequest& request) const override {
    // Plans are lowered from the homogeneous Theorem 5.1 piecewise
    // polynomial; no compiled artifact exists for a generalized game.
    return request.scenario.is_default() && request.n >= 1;
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) throw Error("engine 'compiled' evaluates homogeneous symmetric grids only");
    const auto plan = PlanCache::instance().get_or_lower(request.n, request.t);
    EvalOutcome outcome;
    outcome.engine_id = "compiled";
    outcome.values = plan->eval_grid(request.betas, request.control);
    outcome.certificate_bound = plan->max_error_bound();
    return outcome;
  }
};

/// certified — the escalation ladder on the exact grid: every value carries
/// a rigorous enclosure, escalating until the request tolerance is met (for
/// the symmetric game: the positive double sum with its a priori bound, then
/// the exact O(n²) sum).
/// certificate_bound is the largest per-point error_bound(), so the outcome
/// states how far any value may be from exact.
class CertifiedEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "certified"; }
  Determinism determinism() const noexcept override { return Determinism::kCertified; }
  std::string_view describe() const noexcept override {
    return "certified escalation ladder (rigorous enclosures per point)";
  }
  bool supports(const EvalRequest& request) const override {
    if (request.scenario.is_default()) return request.n >= 1;
    return supports_scenario_exact(request);
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'certified' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    // Generalized scenarios evaluate in exact rational arithmetic directly
    // (core/heterogeneous, core/deviating) — there is no double/interval
    // ladder for them, so every certificate is an exact-tier width-0
    // enclosure that trivially meets any tolerance.
    if (!request.scenario.is_default()) {
      EvalOutcome outcome;
      outcome.engine_id = "certified";
      outcome.certificate_bound = 0.0;
      outcome.values.resize(request.size(), 0.0);
      outcome.certificates.resize(request.size());
      util::ParallelOptions options;
      options.grain = 1;
      options.label = "engine.certified";
      options.control = request.control;
      util::parallel_for(
          0, request.size(),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) {
              CertifiedValue certificate = exact_certificate(exact_scenario_value(request, k));
              certificate.stats.exact_attempts = 1;
              outcome.values[k] = certificate.value();
              outcome.certificates[k] = std::move(certificate);
            }
          },
          options);
      for (const CertifiedValue& certificate : outcome.certificates) {
        outcome.stats += certificate.stats;
      }
      return outcome;
    }
    EvalPolicy policy;
    policy.tolerance = request.tolerance;
    // The ladder polls the same control between rungs and inside the exact
    // sum, so a deadline cuts a point mid-evaluation, not just between points.
    policy.control = request.control;
    // t is rounded once for the whole grid; a double grid point then enters
    // tier 0 with no rational arithmetic at all.
    const core::SymmetricCertifier certifier(request.n, request.t, std::move(policy));
    EvalOutcome outcome;
    outcome.engine_id = "certified";
    outcome.values.resize(request.size(), 0.0);
    outcome.certificates.resize(request.size());
    util::ParallelOptions options;
    // When the tolerance is at or above tier 0's worst-case bound, no point
    // can escalate: a chunk then takes about 100 µs of tier-0 arithmetic, so
    // a short grid runs on the calling thread and starts no pool thread.
    // Otherwise one point per chunk, since an escalated point takes
    // milliseconds on the exact rung. Each point's ladder polls the control.
    options.grain = certifier.tier0_worst_bound() <= request.tolerance.to_double()
                        ? tier0_points_per_chunk(request.n)
                        : 1;
    options.label = "engine.certified";
    options.control = request.control;
    util::parallel_for(
        0, request.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            // Fresh evaluation per attempt: idempotent under engine retry,
            // and CertifiedValue::stats carries this point's counters only.
            outcome.certificates[k] = k < request.exact_betas.size()
                                          ? certifier.evaluate(request.exact_betas[k])
                                          : certifier.evaluate(request.betas[k]);
            outcome.values[k] = outcome.certificates[k].value();
          }
        },
        options);
    outcome.certificate_bound = 0.0;
    for (const CertifiedValue& certificate : outcome.certificates) {
      outcome.stats += certificate.stats;
      outcome.certificate_bound = std::max(outcome.certificate_bound, certificate.error_bound());
    }
    return outcome;
  }
};

/// mc — seeded Monte Carlo estimation. Point k draws from its own stream
/// (seed + point_ids[k], defaulting to seed + k) through
/// core::count_threshold_wins, which polls the request's control, so the
/// estimate is reproducible for any thread count, evaluation order, and
/// request partitioning.
class MonteCarloEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "mc"; }
  Determinism determinism() const noexcept override { return Determinism::kRandomized; }
  std::string_view describe() const noexcept override {
    return "seeded Monte Carlo estimation (reproducible per seed; all scenarios)";
  }
  bool supports(const EvalRequest& request) const override {
    const std::uint32_t n = request.n;
    if (n < 1) return false;
    switch (request.scenario.kind()) {
      case Scenario::Kind::kHomogeneous:
        return true;
      case Scenario::Kind::kHeterogeneous:
        return request.scenario.ranges().size() == n;
      case Scenario::Kind::kDeviating:
        return request.scenario.deviators() < n;
    }
    return false;
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'mc' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    EvalOutcome outcome;
    outcome.engine_id = "mc";
    outcome.values.resize(request.size(), 0.0);
    const double t_d = request.t.to_double();
    std::vector<double> ranges;
    for (const auto& range : request.scenario.ranges()) ranges.push_back(range.to_double());
    for (std::size_t k = 0; k < request.size(); ++k) {
      // A fired deadline/cancellation surfaces with the points finished.
      ddm::throw_if_stopped(request.control, "engine.mc", k, request.size());
      const std::uint64_t point_id =
          k < request.point_ids.size() ? request.point_ids[k] : static_cast<std::uint64_t>(k);
      prob::Rng rng{request.seed + point_id};
      switch (request.scenario.kind()) {
        case Scenario::Kind::kHomogeneous: {
          const core::SingleThresholdProtocol protocol{
              std::vector<util::Rational>(request.n, util::exact_rational(request.betas[k]))};
          outcome.values[k] =
              sim::estimate_winning_probability(protocol, t_d, request.trials, rng,
                                                util::parallelism(), request.control)
                  .estimate;
          break;
        }
        case Scenario::Kind::kHeterogeneous: {
          // Absolute thresholds β·c_i.
          std::vector<double> thresholds(ranges.size());
          for (std::size_t i = 0; i < ranges.size(); ++i) {
            thresholds[i] = request.betas[k] * ranges[i];
          }
          const std::uint64_t wins = core::count_threshold_wins(
              ranges, thresholds, t_d, request.trials, rng, request.control);
          outcome.values[k] = static_cast<double>(wins) / static_cast<double>(request.trials);
          break;
        }
        case Scenario::Kind::kDeviating:
          outcome.values[k] = core::estimate_worst_case_deviating(
                                  request.n, request.scenario.deviators(),
                                  request.betas[k], t_d, request.trials, rng, request.control)
                                  .estimate;
          break;
      }
    }
    return outcome;
  }
};

}  // namespace

void register_builtin_engines(Registry& registry) {
  registry.register_engine(std::make_unique<BatchEvaluator>());
  registry.register_engine(std::make_unique<CertifiedEvaluator>());
  registry.register_engine(std::make_unique<CompiledEvaluator>());
  registry.register_engine(std::make_unique<ExactEvaluator>());
  registry.register_engine(std::make_unique<MonteCarloEvaluator>());
}

}  // namespace ddm::engine
