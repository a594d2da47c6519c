#include "engine/registry.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "core/certified.hpp"
#include "engine/engines.hpp"
#include "engine/plan_cache.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct SelectMetrics {
  obs::Counter selects = obs::counter("engine.selects");
  obs::Counter fallbacks = obs::counter("engine.fallbacks");

  static const SelectMetrics& get() {
    static const SelectMetrics metrics;
    return metrics;
  }
};

/// The symmetric auto rule: a RESIDENT compiled plan (plan cache or plan
/// store — auto never lowers one) whose certificate is <= the request
/// tolerance, else the certified ladder up to kCertifiedAutoMaxN, and past
/// kExactRungAutoMaxN only when no point can escalate to the exact rung.
/// Otherwise the request is refused by name before any work starts.
const Evaluator& select_symmetric(const EvalRequest& request, Registry& registry,
                                  Selection& selection) {
  const double tolerance = request.tolerance.to_double();
  const auto plan =
      PlanCache::instance().find_resident(request.n, request.t);
  if (plan != nullptr) {
    selection.compiled_bound = plan->max_error_bound();
    if (selection.compiled_bound <= tolerance) return registry.require("compiled");
    selection.fallback = true;
    std::ostringstream note;
    note << "compiled plan certificate " << selection.compiled_bound << " exceeds tolerance "
         << tolerance << "; using the certified ladder";
    selection.note = note.str();
  }
  if (request.n > kCertifiedAutoMaxN) {
    throw Error("auto: n = " + std::to_string(request.n) +
                " is past the certified ladder's auto cap (n <= " +
                std::to_string(kCertifiedAutoMaxN) +
                ") and no resident compiled plan meets the tolerance; "
                "use --engine=exact|certified");
  }
  if (request.n > kExactRungAutoMaxN) {
    const double tier0 = core::SymmetricCertifier(request.n, request.t).tier0_worst_bound();
    if (tolerance < tier0) {
      std::ostringstream message;
      message << "auto: tolerance " << tolerance << " is below tier 0's bound " << tier0
              << " at n = " << request.n << ", and auto escalates to the exact rung only for n <= "
              << kExactRungAutoMaxN << "; raise the tolerance or use --engine=exact|certified";
      throw Error(message.str());
    }
  }
  return registry.require("certified");
}

/// Generalized scenarios route around the compiled/batch pool entirely
/// (neither supports a non-default game): exact rational evaluation where
/// the O(2^n) formulas are affordable, seeded Monte Carlo beyond the cap —
/// visibly, via Selection::note.
const Evaluator& select_scenario(const EvalRequest& request, Registry& registry,
                                 Selection& selection) {
  const Evaluator* exact = registry.find("exact");
  if (exact != nullptr && exact->supports(request)) return *exact;
  const Evaluator* mc = registry.find("mc");
  if (mc != nullptr && mc->supports(request)) {
    selection.fallback = true;
    selection.note = "scenario '" + request.scenario.digest() +
                     "' exceeds the exact-evaluation cap; using seeded Monte Carlo";
    return *mc;
  }
  throw Error("no engine supports scenario '" + request.scenario.digest() + "' for this request");
}

}  // namespace

const char* to_string(Determinism determinism) noexcept {
  switch (determinism) {
    case Determinism::kDeterministic:
      return "deterministic";
    case Determinism::kCertified:
      return "certified";
    case Determinism::kRandomized:
      return "randomized";
  }
  return "unknown";
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* fresh = new Registry();  // leaked: outlives late callers
    register_builtin_engines(*fresh);
    return fresh;
  }();
  return *registry;
}

void Registry::register_engine(std::unique_ptr<Evaluator> evaluator) {
  if (evaluator == nullptr || evaluator->id().empty()) {
    throw Error("Registry::register_engine: engine with empty id");
  }
  if (find(evaluator->id()) != nullptr) {
    throw Error("Registry::register_engine: duplicate engine id '" +
                std::string(evaluator->id()) + "'");
  }
  engines_.push_back(std::move(evaluator));
}

const Evaluator* Registry::find(std::string_view id) const noexcept {
  for (const std::unique_ptr<Evaluator>& evaluator : engines_) {
    if (evaluator->id() == id) return evaluator.get();
  }
  return nullptr;
}

const Evaluator& Registry::require(std::string_view id) const {
  if (const Evaluator* evaluator = find(id)) return *evaluator;
  std::string message = "unknown engine '" + std::string(id) + "' (registered:";
  for (const std::string_view known : ids()) {
    message += ' ';
    message += known;
  }
  message += ')';
  throw Error(std::move(message));
}

std::vector<std::string_view> Registry::ids() const {
  std::vector<std::string_view> result;
  result.reserve(engines_.size());
  for (const std::unique_ptr<Evaluator>& evaluator : engines_) {
    result.push_back(evaluator->id());
  }
  std::sort(result.begin(), result.end());
  return result;
}

Selection select(const EnginePolicy& policy, const EvalRequest& request) {
  const SelectMetrics& metrics = SelectMetrics::get();
  Registry& registry = Registry::instance();
  Selection selection;
  selection.requested = policy.engine;

  if (!policy.is_auto()) {
    const Evaluator& evaluator = registry.require(policy.engine);
    if (!evaluator.supports(request)) {
      throw Error("engine '" + std::string(evaluator.id()) +
                  "' does not support this request (" + std::string(evaluator.describe()) + ")");
    }
    selection.evaluator = &evaluator;
    metrics.selects.add();
    // Span string args must outlive the trace export; the adapter ids are
    // string literals, so they qualify (policy.engine would not).
    DDM_SPAN("engine.select",
             {{"requested", evaluator.id().data()}, {"chosen", evaluator.id().data()}});
    return selection;
  }

  selection.auto_mode = true;
  if (!request.scenario.is_default()) {
    selection.evaluator = &select_scenario(request, registry, selection);
  } else {
    selection.evaluator = &select_symmetric(request, registry, selection);
  }
  metrics.selects.add();
  if (selection.fallback) metrics.fallbacks.add();
  DDM_SPAN("engine.select", {{"requested", "auto"},
                             {"chosen", selection.evaluator->id().data()},
                             {"fallback", selection.fallback ? std::int64_t{1} : std::int64_t{0}}});
  return selection;
}

}  // namespace ddm::engine
