// threshold — P of a symmetric threshold protocol (Theorem 5.1), as one
// engine request. The paper's game defaults to the exact engine, a
// generalized --scenario to auto (exact within its cap, else seeded MC).
#include <iomanip>
#include <iostream>
#include <limits>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "util/status.hpp"

namespace ddm::cli {

int run_threshold(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const util::Rational beta = parse_rational("beta", args[3]);
  const engine::Scenario scenario = resolve_scenario(options);
  if (!scenario.is_default()) {
    try {
      scenario.check_players(n, "threshold");
    } catch (const Error& error) {
      throw BadArgument(error.what());
    }
  }
  std::cout << "Symmetric single-threshold protocol, beta = " << beta << "\n";
  if (!scenario.is_default()) std::cout << "Scenario: " << scenario.digest() << "\n";
  auto request = engine::EvalRequest::symmetric(n, t, {beta.to_double()});
  request.exact_betas = {beta};
  request.scenario = scenario;
  const engine::Selection selection =
      select_engine(options, request, scenario.is_default() ? "exact" : "auto");
  const engine::EvalOutcome outcome = evaluate(selection, request);
  if (outcome.engine_id == "certified") {
    const ddm::CertifiedValue& result = outcome.certificates.at(0);
    print_certified(result, request.tolerance);
    return result.met_tolerance ? 0 : 3;
  }
  // An exact point prints its rational and a short double; any other value
  // prints every digit of its double.
  std::cout << "  P(no overflow) = ";
  if (!outcome.certificates.empty() && outcome.certificates[0].tier == ddm::EvalTier::kExact) {
    std::cout << outcome.certificates[0].enclosure().lo() << " = " << outcome.values.at(0);
  } else {
    std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
              << outcome.values.at(0);
  }
  const engine::Evaluator& answered = engine::Registry::instance().require(outcome.engine_id);
  std::cout << "  [engine: " << outcome.engine_id << ", "
            << engine::to_string(answered.determinism()) << "]\n";
  return 0;
}

}  // namespace ddm::cli
