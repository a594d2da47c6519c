// sweep — β-grid of Theorem 5.1 values, evaluated through the engine layer.
//
// Engine semantics:
//   * forced (--engine=<id>, id != auto): the named engine evaluates every
//     point and rows keep the pre-engine format {"n", "t", "beta", "p_win"} —
//     pinned byte-identical to the pre-refactor CLI by tests/golden_cli/.
//   * auto (default or --engine=auto): engine::select applies the auto
//     policy (engine/policy.hpp); every row gains an "engine" field naming
//     the backend that actually produced it and, for the paper's game, a
//     "bound" field with the proven error bound whenever the engine has one.
//     A fallback (compiled plan declined) is announced once on stderr —
//     never silent.
//   * --certify / --engine=certified: the certified grid (exact rational
//     betas through the escalation ladder), rows carrying tier/width, exit 3
//     when any point misses the tolerance.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "core/certified.hpp"
#include "engine/registry.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace ddm::cli {

namespace {

using util::Rational;

// Certified sweep: every grid point goes through the escalation ladder with
// an exact rational beta (clamped to [0, 1]), fanned across the pool one
// point per chunk. Rows gain the per-point tier/escalations/width; exit code
// 3 when any point misses the policy tolerance. Under a generalized
// --scenario the per-point ladder is replaced by one batched request through
// the certified ENGINE (the only certificate-bearing backend that knows the
// game); rows then also carry the scenario digest.
int sweep_certified(std::uint32_t n, const Rational& t, const Rational& lo, const Rational& hi,
                    std::uint32_t steps, const ddm::EvalPolicy& policy,
                    const engine::Scenario& scenario) {
  std::vector<Rational> betas(steps + 1, Rational{0});
  const Rational range = hi - lo;
  const Rational denom{static_cast<std::int64_t>(steps)};
  for (std::uint32_t k = 0; k <= steps; ++k) {
    Rational beta = lo + range * Rational{static_cast<std::int64_t>(k)} / denom;
    if (beta < Rational{0}) beta = Rational{0};
    if (beta > Rational{1}) beta = Rational{1};
    betas[k] = beta;
  }

  std::vector<ddm::CertifiedValue> results(steps + 1);
  if (scenario.is_default()) {
    const core::SymmetricCertifier certifier(n, t, policy);
    util::ParallelOptions options;
    options.grain = 1;
    options.label = "sweep_certify";
    util::parallel_for(
        0, betas.size(),
        [&](std::size_t chunk_lo, std::size_t chunk_hi) {
          for (std::size_t k = chunk_lo; k < chunk_hi; ++k) {
            // Fresh evaluation per attempt: idempotent under engine retry, and
            // CertifiedValue::stats carries this point's ladder counters only.
            results[k] = certifier.evaluate(betas[k]);
          }
        },
        options);
  } else {
    std::vector<double> betas_d(steps + 1);
    for (std::uint32_t k = 0; k <= steps; ++k) betas_d[k] = betas[k].to_double();
    auto request = engine::EvalRequest::symmetric(n, t, std::move(betas_d));
    request.exact_betas = betas;
    request.tolerance = policy.tolerance;
    request.scenario = scenario;
    engine::EnginePolicy engine_policy;
    engine_policy.engine = "certified";
    const engine::Selection selection = engine::select(engine_policy, request);
    results = selection.evaluator->evaluate(request).certificates;
  }

  bool all_met = true;
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10) << "[\n";
  for (std::uint32_t k = 0; k <= steps; ++k) {
    const ddm::CertifiedValue& r = results[k];
    all_met = all_met && r.met_tolerance;
    std::cout << "  {\"n\": " << n << ", \"t\": " << t.to_double() << ", \"beta\": "
              << betas[k].to_double() << ", \"p_win\": " << r.value();
    if (!scenario.is_default()) std::cout << ", \"scenario\": \"" << scenario.digest() << "\"";
    std::cout << ", \"tier\": \""
              << ddm::to_string(r.tier) << "\", \"escalations\": " << r.stats.escalations
              << ", \"width\": " << r.width().to_double() << ", \"met_tolerance\": "
              << (r.met_tolerance ? "true" : "false") << "}" << (k < steps ? "," : "") << "\n";
  }
  std::cout << "]\n";
  return all_met ? 0 : 3;
}

}  // namespace

int run_sweep(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const Rational t = parse_rational("t", args[2]);
  const Rational lo = parse_rational("beta_lo", args[3]);
  const Rational hi = parse_rational("beta_hi", args[4]);
  const std::uint32_t steps = parse_u32("steps", args[5]);
  if (n == 0) throw BadArgument("invalid n '0' (sweep needs n >= 1)");
  if (steps == 0) throw BadArgument("invalid steps '0' (sweep needs steps >= 1)");
  const engine::Scenario scenario = resolve_scenario(options);
  if (!scenario.is_default()) {
    try {
      scenario.check_players(n, "sweep");
    } catch (const Error& error) {
      throw BadArgument(error.what());
    }
  }
  DDM_SPAN("cli.sweep", {{"n", static_cast<std::int64_t>(n)},
                         {"steps", static_cast<std::int64_t>(steps)}});
  const bool certified_engine = options.engine_set && options.engine == "certified";
  if (options.certify.enabled || certified_engine) {
    if (!options.checkpoint_path.empty()) {
      throw BadArgument(certified_engine
                            ? "--engine=certified cannot be combined with --checkpoint/--resume"
                            : "--certify cannot be combined with --checkpoint/--resume");
    }
    if (options.shard_set) {
      throw BadArgument(certified_engine
                            ? "--engine=certified cannot be combined with --shard"
                            : "--certify cannot be combined with --shard");
    }
    return sweep_certified(n, t, lo, hi, steps, options.certify.policy, scenario);
  }

  const double t_d = t.to_double();
  const double lo_d = lo.to_double();
  const double hi_d = hi.to_double();
  std::vector<double> betas(steps + 1);
  for (std::uint32_t k = 0; k <= steps; ++k) {
    betas[k] =
        std::clamp(lo_d + (hi_d - lo_d) * static_cast<double>(k) / static_cast<double>(steps),
                   0.0, 1.0);
  }

  engine::EnginePolicy policy;
  policy.engine = options.engine;
  // Selection always sees the FULL grid, even when sharded: the auto policy
  // must resolve identically for every shard of one sweep (and for the
  // unsharded run), or `ddm_cli merge` could not reproduce it.
  auto request = engine::EvalRequest::symmetric(n, t, betas);
  request.scenario = scenario;
  const engine::Selection selection = engine::select(policy, request);
  report_fallback(selection);

  // The rows this process owns under --shard=i/k (strided assignment, so
  // shards stay balanced even on monotone-cost grids). Unsharded = 0/1 owns
  // every row.
  std::vector<std::uint32_t> owned;
  owned.reserve(steps / options.shard_count + 1);
  for (std::uint32_t k = 0; k <= steps; ++k) {
    if (k % options.shard_count == options.shard_index) owned.push_back(k);
  }

  // Per-row proven bounds (+inf = none): reported for auto rows of the
  // paper's game; forced-engine and scenario rows keep their pinned format.
  const bool report_bounds = selection.auto_mode && scenario.is_default();
  std::vector<double> values(steps + 1, 0.0);
  std::vector<double> bounds(steps + 1, std::numeric_limits<double>::infinity());
  const auto keep = [&](const engine::EvalOutcome& outcome, std::size_t i, std::uint32_t k) {
    values[k] = outcome.values[i];
    if (report_bounds) bounds[k] = outcome.bound_at(i);
  };
  if (options.checkpoint_path.empty()) {
    if (owned.size() == betas.size()) {
      const engine::EvalOutcome outcome = selection.evaluator->evaluate(request);
      for (std::uint32_t k = 0; k <= steps; ++k) keep(outcome, k, k);
    } else {
      // Sharded one-shot run: evaluate only the owned rows, carrying their
      // GLOBAL grid indices as point identities so randomized engines key
      // their streams exactly like the unsharded run.
      std::vector<double> shard_betas;
      shard_betas.reserve(owned.size());
      auto shard_request = engine::EvalRequest::symmetric(n, t, {});
      shard_request.scenario = scenario;
      for (const std::uint32_t k : owned) {
        shard_betas.push_back(betas[k]);
        shard_request.point_ids.push_back(k);
      }
      shard_request.betas = std::move(shard_betas);
      const engine::EvalOutcome outcome = selection.evaluator->evaluate(shard_request);
      for (std::size_t i = 0; i < owned.size(); ++i) keep(outcome, i, owned[i]);
    }
  } else {
    // Crash-safe path: rows already in the checkpoint are reused verbatim;
    // missing rows are evaluated in blocks, each appended (and flushed)
    // before the next block starts. Every row goes through the identical
    // evaluator either way (the selection is deterministic per instance and
    // grid), so the final output is byte-identical to an uninterrupted run.
    // The header records the full run identity — grid, requested engine,
    // resolved engine, shard — and a resume rejects any mismatch by field.
    util::SweepParams params;
    params.n = n;
    params.t = t.to_string();
    params.beta_lo = lo.to_string();
    params.beta_hi = hi.to_string();
    params.steps = steps;
    params.engine = options.engine;
    params.resolved = std::string(selection.id());
    params.shard_index = options.shard_index;
    params.shard_count = options.shard_count;
    params.scenario = scenario.digest();
    util::SweepCheckpoint checkpoint(options.checkpoint_path, params, options.resume);
    std::vector<std::uint32_t> missing;
    for (const std::uint32_t k : owned) {
      if (checkpoint.has(k)) {
        values[k] = checkpoint.completed().at(k).p_win;
        bounds[k] = checkpoint.completed().at(k).bound;
      } else {
        missing.push_back(k);
      }
    }
    constexpr std::size_t kBlock = 8;
    for (std::size_t start = 0; start < missing.size(); start += kBlock) {
      const std::size_t stop = std::min(start + kBlock, missing.size());
      std::vector<double> block_betas;
      block_betas.reserve(stop - start);
      auto block_request = engine::EvalRequest::symmetric(n, t, {});
      block_request.scenario = scenario;
      for (std::size_t i = start; i < stop; ++i) {
        block_betas.push_back(betas[missing[i]]);
        // Global grid indices as point identities: a checkpointed (or
        // sharded) Monte Carlo sweep draws the same streams as the
        // uninterrupted unsharded run.
        block_request.point_ids.push_back(missing[i]);
      }
      block_request.betas = std::move(block_betas);
      const engine::EvalOutcome outcome = selection.evaluator->evaluate(block_request);
      for (std::size_t i = start; i < stop; ++i) {
        const std::uint32_t k = missing[i];
        keep(outcome, i - start, k);
        checkpoint.append({k, betas[k], values[k], bounds[k]});
      }
    }
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10) << "[\n";
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const std::uint32_t k = owned[i];
    std::cout << "  {\"n\": " << n << ", \"t\": " << t_d << ", \"beta\": " << betas[k]
              << ", \"p_win\": " << values[k];
    if (!scenario.is_default()) std::cout << ", \"scenario\": \"" << scenario.digest() << "\"";
    if (selection.auto_mode) std::cout << ", \"engine\": \"" << selection.id() << "\"";
    if (std::isfinite(bounds[k])) std::cout << ", \"bound\": " << bounds[k];
    std::cout << "}" << (i + 1 < owned.size() ? "," : "") << "\n";
  }
  std::cout << "]\n";
  return 0;
}

}  // namespace ddm::cli
