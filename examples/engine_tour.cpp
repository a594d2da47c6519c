// engine_tour — the unified evaluation-engine layer in one sitting.
//
// The same question — P(no overflow) for a symmetric single-threshold
// protocol — answered by every registered backend, then by the automatic
// policy, with the plan cache doing its job across repeated requests.
#include <iomanip>
#include <iostream>

#include "ddm.hpp"

int main() {
  using ddm::util::Rational;
  namespace engine = ddm::engine;

  const std::uint32_t n = 6;
  const Rational t{2};
  auto request = engine::EvalRequest::symmetric(n, t, {0.25, 0.5, 0.625, 0.75});

  // 1. The registry: every backend, its guarantees, one seam.
  engine::Registry& registry = engine::Registry::instance();
  std::cout << "Registered engines (n = " << n << ", t = " << t << "):\n";
  for (const std::string_view id : registry.ids()) {
    const engine::Evaluator& evaluator = registry.require(id);
    std::cout << "  " << std::left << std::setw(10) << id
              << to_string(evaluator.determinism()) << " — " << evaluator.describe() << "\n";
  }

  // 2. Every engine answers the same request; the parity suite pins how
  //    closely they must agree.
  std::cout << "\nP(no overflow) at beta = 0.625, per engine:\n";
  for (const std::string_view id : registry.ids()) {
    const auto outcome = registry.require(id).evaluate(request);
    std::cout << "  " << std::left << std::setw(10) << id << std::setprecision(15)
              << outcome.values[2] << "\n";
  }

  // 3. The auto policy: the compiled plan when one is resident (the
  //    `compiled` answer above lowered it) and its certificate meets the
  //    tolerance, the certified O(n²) ladder otherwise — auto never lowers a
  //    plan itself — and it says which it chose.
  const auto selection = engine::select(engine::EnginePolicy{}, request);
  std::cout << "\nAuto policy chose '" << selection.id() << "'"
            << " (compiled certificate bound " << selection.compiled_bound << ")\n";

  // 4. The plan cache: the lowering above is re-used, not re-done.
  const auto& stats = engine::PlanCache::instance().stats();
  std::cout << "Plan cache: " << stats.hits << " hits, " << stats.misses
            << " misses across this run — one lowering served every compiled call.\n";
  return 0;
}
