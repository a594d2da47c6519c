// plans — operate on the persistent compiled-plan store (poly/plan_store.hpp).
//
// Verbs:
//   * precompile <n_max> <t> [tol]: lower the Theorem 5.1 plan for every
//     n = 1..n_max at capacity t and persist each plan whose certified
//     max-error bound clears the tolerance (default 1e-9, EvalRequest's
//     default tolerance, so a store holds exactly what `auto` admits for a
//     default request). Plans over the bound are reported and skipped — the
//     store only ever holds plans that can honor their own advertisement.
//     Exit 0 when at least one plan was stored, exit 3 when every n was
//     skipped.
//   * list: one JSON row per store file, through full validate-on-load, with
//     rejected files reported (exit stays 0 — list is an inventory).
//   * validate: same walk, but any rejected file makes the exit status 3 —
//     the CI gate for a store directory.
// The store directory comes from --store=<dir> (created for precompile,
// must exist for list/validate) or the DDM_PLAN_STORE environment variable.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "core/symmetric_threshold.hpp"
#include "engine/evaluator.hpp"
#include "obs/trace.hpp"
#include "poly/plan_store.hpp"
#include "util/status.hpp"

namespace ddm::cli {

namespace {

using util::Rational;

/// Resolves the store directory for a verb: --store wins, DDM_PLAN_STORE is
/// the fallback, neither is a BadArgument (exit 2). `create` distinguishes
/// the write side (precompile makes the directory) from the read side
/// (list/validate require it to exist).
std::shared_ptr<poly::PlanStore> resolve_store(const Options& options, bool create) {
  if (!options.store_dir.empty()) {
    return create ? poly::PlanStore::create_directory(options.store_dir)
                  : poly::PlanStore::open_directory(options.store_dir, "--store");
  }
  const char* env = std::getenv("DDM_PLAN_STORE");
  if (env != nullptr && *env != '\0') {
    return create ? poly::PlanStore::create_directory(env)
                  : poly::PlanStore::open_directory(env, "DDM_PLAN_STORE");
  }
  throw BadArgument("plans needs a store directory (use --store=<dir> or set DDM_PLAN_STORE)");
}

int plans_precompile(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n_max = parse_u32("n_max", args[2]);
  const Rational t = parse_rational("t", args[3]);
  if (n_max == 0) throw BadArgument("invalid n_max '0' (precompile needs n_max >= 1)");
  if (t.signum() <= 0) throw BadArgument("invalid t '" + args[3] + "' (capacity must be > 0)");
  double tolerance = engine::EvalRequest{}.tolerance.to_double();
  if (args.size() == 5) {
    const Rational tol = parse_rational("tol", args[4]);
    if (tol.signum() <= 0) {
      throw BadArgument("invalid tol '" + args[4] + "' (tolerance must be > 0)");
    }
    tolerance = tol.to_double();
  }
  const auto store = resolve_store(options, /*create=*/true);
  DDM_SPAN("cli.plans.precompile", {{"n_max", static_cast<std::int64_t>(n_max)}});

  std::size_t stored = 0;
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::uint32_t n = 1; n <= n_max; ++n) {
    const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
    const auto plan = poly::CompiledPiecewise::lower(analysis.winning_probability());
    if (plan.max_error_bound() > tolerance) {
      std::cout << "{\"n\": " << n << ", \"t\": \"" << t.to_string()
                << "\", \"stored\": false, \"max_error\": " << plan.max_error_bound()
                << ", \"tolerance\": " << tolerance << "}\n";
      continue;
    }
    store->save(n, t, plan, tolerance);
    ++stored;
    std::cout << "{\"n\": " << n << ", \"t\": \"" << t.to_string()
              << "\", \"stored\": true, \"pieces\": " << plan.pieces().size()
              << ", \"max_error\": " << plan.max_error_bound() << ", \"path\": \""
              << store->path_for(n, t) << "\"}\n";
  }
  std::cerr << "plans: stored " << stored << "/" << n_max << " plans in '"
            << store->directory() << "'\n";
  return stored > 0 ? 0 : 3;
}

/// Shared walk for `list` and `validate`: every *.plan file goes through full
/// validate-on-load; `strict` (validate) turns any rejection into exit 3.
int plans_walk(const Options& options, bool strict) {
  const auto store = resolve_store(options, /*create=*/false);
  const auto paths = store->list_paths();
  std::size_t rejected = 0;
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const std::string& path : paths) {
    try {
      const poly::LoadedPlan loaded = store->load_path(path);
      std::cout << "{\"path\": \"" << path << "\", \"valid\": true, \"n\": " << loaded.n
                << ", \"t\": \"" << loaded.t
                << "\", \"pieces\": " << loaded.plan->pieces().size()
                << ", \"max_error\": " << loaded.plan->max_error_bound()
                << ", \"tolerance\": " << loaded.tolerance << "}\n";
    } catch (const PlanStoreError& error) {
      ++rejected;
      std::cout << "{\"path\": \"" << path << "\", \"valid\": false, \"stale\": "
                << (error.stale() ? "true" : "false") << "}\n";
      std::cerr << "plans: " << error.what() << "\n";
    }
  }
  std::cerr << "plans: " << (paths.size() - rejected) << "/" << paths.size()
            << " valid plans in '" << store->directory() << "'\n";
  return strict && rejected > 0 ? 3 : 0;
}

}  // namespace

int run_plans(const std::vector<std::string>& args, const Options& options) {
  const std::string& verb = args[1];
  if (verb == "precompile") {
    if (args.size() < 4 || args.size() > 5) {
      throw BadArgument("plans precompile needs <n_max> <t> [tol]");
    }
    return plans_precompile(args, options);
  }
  if (args.size() != 2) throw BadArgument("plans " + verb + " takes no further arguments");
  if (verb == "list") return plans_walk(options, /*strict=*/false);
  if (verb == "validate") return plans_walk(options, /*strict=*/true);
  throw BadArgument("unknown plans verb '" + verb +
                    "' (expected precompile, list, or validate)");
}

}  // namespace ddm::cli
