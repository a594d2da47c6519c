// analyze — full Section 5.2 analysis of one symmetric instance.
#include <algorithm>
#include <iostream>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "core/oblivious.hpp"
#include "core/symmetric_threshold.hpp"
#include "poly/roots.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace ddm::cli {

namespace {

/// Generalized-game analysis. The Section 5.2 closed-form pieces are a
/// homogeneous result, so under a --scenario the optimizer is numeric:
/// iterated grid refinement of P(beta) over [0, 1] through the
/// scenario-aware engine (exact within its cap, else seeded MC — the engine
/// that actually answered is reported). Each round evaluates one batched
/// grid request and zooms into the cell bracket around the argmax; the
/// reported beta* is a numeric estimate, never a certified root, and the
/// output says so explicitly.
int run_analyze_scenario(const engine::Scenario& scenario, std::uint32_t n,
                         const util::Rational& t, const Options& options) {
  std::cout << "Scenario: " << scenario.digest() << "\n"
            << "Numeric optimization of P(beta), n = " << n << ", t = " << t
            << " (no closed-form pieces for this game):\n";
  double lo = 0.0;
  double hi = 1.0;
  double best_beta = 0.0;
  double best_value = -1.0;
  std::string engine_id;
  constexpr std::uint32_t kGrid = 64;
  constexpr int kRounds = 4;
  const auto grid = [&] {
    std::vector<double> betas(kGrid + 1);
    for (std::uint32_t k = 0; k <= kGrid; ++k) {
      betas[k] = lo + (hi - lo) * static_cast<double>(k) / static_cast<double>(kGrid);
    }
    return betas;
  };
  // Resolved once on the first grid; every round's grid poses the same game.
  auto request = engine::EvalRequest::symmetric(n, t, grid());
  request.scenario = scenario;
  const engine::Selection selection = select_engine(options, request);
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) request.betas = grid();
    const engine::EvalOutcome outcome = evaluate(selection, request);
    engine_id = outcome.engine_id;
    std::size_t arg = 0;
    for (std::size_t k = 0; k <= kGrid; ++k) {
      if (outcome.values[k] > outcome.values[arg]) arg = k;
    }
    best_beta = request.betas[arg];
    best_value = outcome.values[arg];
    // Zoom into the bracketing cells around the argmax for the next round.
    const double cell = (hi - lo) / static_cast<double>(kGrid);
    lo = std::max(0.0, best_beta - cell);
    hi = std::min(1.0, best_beta + cell);
  }
  std::cout << "beta* ~= " << util::fmt(best_beta, 12)
            << "  (numeric grid refinement; certified: no)\n"
            << "P(beta*) ~= " << util::fmt(best_value, 15) << "  [engine: " << engine_id
            << "]\n"
            << "Grid resolution: " << kRounds << " rounds x " << (kGrid + 1) << " points\n";
  return 0;
}

}  // namespace

int run_analyze(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const int digits = args.size() == 4 ? parse_int("digits", args[3]) : 30;
  if (digits < 1 || digits > 1000) {
    throw BadArgument("invalid digits '" + args[3] + "' (expected 1..1000)");
  }
  const engine::Scenario scenario = resolve_scenario(options);
  if (!scenario.is_default()) {
    try {
      scenario.check_players(n, "analyze");
    } catch (const Error& error) {
      throw BadArgument(error.what());
    }
    return run_analyze_scenario(scenario, n, t, options);
  }
  const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
  std::cout << "P(beta) for n = " << n << ", t = " << t << " (exact pieces):\n";
  for (const auto& piece : analysis.winning_probability().pieces()) {
    std::cout << "  [" << piece.lo << ", " << piece.hi << "]  "
              << piece.poly.to_string("beta") << "\n";
  }
  const auto opt = analysis.optimize();
  std::cout << "Optimality condition: " << opt.optimality_condition.to_string("beta")
            << (opt.interior ? " = 0" : "") << "\n";
  poly::RootInterval beta = opt.beta;
  if (opt.interior) {
    const util::Rational width{util::BigInt{1},
                               util::BigInt::pow(util::BigInt{10},
                                                 static_cast<std::uint64_t>(digits))};
    beta = poly::refine_root(opt.optimality_condition, beta, width);
  }
  std::cout << "beta* = " << util::fmt(beta.approx(), std::min(digits, 17))
            << "  (certified global maximum: " << (opt.certified ? "yes" : "no") << ")\n"
            << "P(beta*) = " << util::fmt(opt.value.to_double(), 15) << "\n"
            << "Oblivious baseline: "
            << util::fmt(core::optimal_oblivious_winning_probability(n, t).to_double(), 15)
            << "\n";
  if (options.engine_set) {
    // Cross-check: re-evaluate P at the certified beta* through the
    // requested engine, after the unchanged default report.
    auto request = engine::EvalRequest::symmetric(n, t, {beta.approx()});
    const engine::EvalOutcome outcome = evaluate(select_engine(options, request), request);
    std::cout << "Engine cross-check [" << outcome.engine_id
              << "]: P(beta*) = " << util::fmt(outcome.values.at(0), 15) << "\n";
  }
  return 0;
}

}  // namespace ddm::cli
