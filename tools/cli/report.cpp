#include "cli/report.hpp"

#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>

#include "cli/options.hpp"
#include "engine/resilient.hpp"

namespace ddm::cli {

engine::Selection select_engine(const Options& options, engine::EvalRequest& request,
                                std::string_view default_engine) {
  engine::EnginePolicy policy;
  policy.engine = options.engine_set ? options.engine : std::string(default_engine);
  if (options.certify) {
    policy.engine = "certified";
    request.tolerance = *options.certify;
  }
  engine::Selection selection = engine::select(policy, request);
  if (selection.auto_mode && selection.fallback) {
    std::cerr << "note: --engine=auto: " << selection.note << "\n";
  }
  return selection;
}

engine::EvalOutcome evaluate(const engine::Selection& selection,
                             const engine::EvalRequest& request) {
  engine::EvalOutcome outcome = engine::evaluate_resilient(selection, request);
  if (outcome.degraded) std::cerr << "note: degraded: " << outcome.degradation_note << "\n";
  return outcome;
}

void print_certified(const ddm::CertifiedValue& result, const util::Rational& tolerance) {
  const ddm::EvalStats& stats = result.stats;
  const util::RationalInterval enclosure = result.enclosure();
  const auto flags = std::cout.flags();
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "  certified value = " << result.value() << "\n"
            << "  enclosure = [" << enclosure.lo().to_double() << ", "
            << enclosure.hi().to_double() << "]"
            << std::setprecision(3) << "  width = " << result.width().to_double() << "\n"
            << "  tier = " << ddm::to_string(result.tier) << "  tolerance ("
            << tolerance.to_double() << ") " << (result.met_tolerance ? "met" : "NOT met")
            << "\n"
            << "  ladder: double x" << stats.double_attempts << ", exact x"
            << stats.exact_attempts
            << ", escalations " << stats.escalations << ", numeric errors "
            << stats.numeric_errors << "\n";
  std::cout.flags(flags);
}

void print_sweep_rows(std::uint32_t n, double t, const std::string& scenario,
                      std::string_view engine, std::span<const util::SweepRow> rows) {
  const bool generalized = scenario != engine::Scenario{}.digest();
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10) << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << "  {\"n\": " << n << ", \"t\": " << t << ", \"beta\": " << rows[i].beta
              << ", \"p_win\": " << rows[i].p_win;
    if (generalized) std::cout << ", \"scenario\": \"" << scenario << "\"";
    std::cout << ", \"engine\": \"" << engine << "\"";
    if (std::isfinite(rows[i].bound)) std::cout << ", \"bound\": " << rows[i].bound;
    std::cout << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  std::cout << "]\n";
}

}  // namespace ddm::cli
