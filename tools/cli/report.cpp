#include "cli/report.hpp"

#include <iomanip>
#include <iostream>
#include <limits>

namespace ddm::cli {

void print_certified(const ddm::CertifiedValue& result, const ddm::EvalPolicy& policy) {
  const ddm::EvalStats& stats = result.stats;
  const util::RationalInterval enclosure = result.enclosure();
  const auto flags = std::cout.flags();
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "  certified value = " << result.value() << "\n"
            << "  enclosure = [" << enclosure.lo().to_double() << ", "
            << enclosure.hi().to_double() << "]"
            << std::setprecision(3) << "  width = " << result.width().to_double() << "\n"
            << "  tier = " << ddm::to_string(result.tier) << "  tolerance ("
            << policy.tolerance.to_double() << ") "
            << (result.met_tolerance ? "met" : "NOT met") << "\n"
            << "  ladder: double x" << stats.double_attempts << ", interval x"
            << stats.interval_attempts << ", exact x" << stats.exact_attempts
            << ", escalations " << stats.escalations << ", numeric errors "
            << stats.numeric_errors << "\n";
  std::cout.flags(flags);
}

void report_fallback(const engine::Selection& selection) {
  if (selection.auto_mode && selection.fallback) {
    std::cerr << "note: --engine=auto: " << selection.note << "\n";
  }
}

}  // namespace ddm::cli
