// simulate — Monte Carlo cross-check of the Theorem 5.1 value.
#include <iostream>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "core/protocol.hpp"
#include "prob/rng.hpp"
#include "sim/monte_carlo.hpp"
#include "util/parallel.hpp"

namespace ddm::cli {

int run_simulate(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const util::Rational beta = parse_rational("beta", args[3]);
  const std::uint64_t trials = parse_u64("trials", args[4]);
  const std::uint64_t seed = args.size() == 6 ? parse_u64("seed", args[5]) : 42;
  const auto protocol = core::SingleThresholdProtocol::symmetric(n, beta);
  prob::Rng rng{seed};
  // Trial blocks and their split streams depend on `trials` alone, so the
  // estimate is the same on any number of lanes.
  const auto result = sim::estimate_winning_probability(protocol, t.to_double(), trials, rng,
                                                        util::parallelism());
  std::cout << "Simulated " << trials << " trials (seed " << seed << "):\n"
            << "  estimate = " << result.estimate << "  95% CI [" << result.ci_low << ", "
            << result.ci_high << "]\n";
  auto request = engine::EvalRequest::symmetric(n, t, {beta.to_double()});
  request.exact_betas = {beta};
  const engine::EvalOutcome outcome = evaluate(select_engine(options, request, "exact"), request);
  const double reference = outcome.values.at(0);
  std::cout << "  reference = " << reference << "  [engine: " << outcome.engine_id << "]  ("
            << (result.covers(reference) ? "covered" : "NOT covered") << ")\n";
  return 0;
}

}  // namespace ddm::cli
