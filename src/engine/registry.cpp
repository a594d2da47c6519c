#include "engine/registry.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "engine/cost_model.hpp"
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
  obs::Counter policy_consults = obs::counter("engine.policy.consults");
  obs::Counter policy_model_wins = obs::counter("engine.policy.model_wins");
  obs::Counter policy_static_wins = obs::counter("engine.policy.static_wins");

  static const SelectMetrics& get() {
    static const SelectMetrics metrics;
    return metrics;
  }
};

/// The symmetric auto rule, shared by the static rule and the model path
/// (they differ only in the tolerance the plan certificate must clear): a
/// RESIDENT compiled plan (plan cache or plan store — auto never lowers one)
/// whose certificate clears the tolerance, else the certified O(n²) ladder
/// up to kCertifiedAutoMaxN, else batch — which declines any n past the
/// double kernels' cap with a named error before work starts.
const Evaluator& select_symmetric(const EvalRequest& request, double tolerance,
                                  Registry& registry, Selection& selection) {
  const auto plan =
      PlanCache::instance().find_resident(request.n, request.t, request.scenario.digest());
  if (plan != nullptr) {
    selection.compiled_bound = plan->max_error_bound();
    if (selection.compiled_bound <= tolerance) return registry.require("compiled");
    selection.fallback = true;
    std::ostringstream note;
    note << "compiled plan certificate " << selection.compiled_bound << " exceeds tolerance "
         << tolerance << "; using the certified ladder";
    selection.note = note.str();
  }
  return registry.require(request.n <= kCertifiedAutoMaxN ? "certified" : "batch");
}

/// The model-consulting rule for general per-player points: the
/// predicted-fastest of the interchangeable double kernels (batch, kernel).
/// Engines the table has no data for predict +infinity and drop out; when
/// neither has data the choice degrades to the static rule's batch, so a
/// sparse table can only ever refine dispatch, not break it.
const Evaluator& rank_general(const CostModel& model, const EvalRequest& request,
                              Registry& registry) {
  const SelectMetrics& metrics = SelectMetrics::get();
  // One ranking call for both candidates: CostModel::cheapest takes the
  // table lock once and compares in log space.
  std::array<const Evaluator*, 2> pool;
  std::array<std::string_view, 2> ids;
  std::size_t pool_count = 0;
  for (const char* id : {"batch", "kernel"}) {
    const Evaluator* evaluator = registry.find(id);
    if (evaluator == nullptr || !evaluator->supports(request)) continue;
    pool[pool_count] = evaluator;
    ids[pool_count] = evaluator->id();
    ++pool_count;
  }
  const Evaluator& static_choice = registry.require("batch");
  const std::size_t best = model.cheapest(ids.data(), pool_count, request.n, request.size(),
                                          request.scenario.digest());
  const Evaluator& chosen = best == pool_count ? static_choice : *pool[best];
  (&chosen == &static_choice ? metrics.policy_static_wins : metrics.policy_model_wins).add();
  return chosen;
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
  // Generalized scenarios route around the compiled/batch/kernel pool
  // entirely (none of them supports a non-default game): exact rational
  // evaluation where the O(2^n) formulas are affordable, seeded Monte Carlo
  // beyond the cap — visibly, via Selection::note.
  if (!request.scenario.is_default()) {
    const Evaluator* exact = registry.find("exact");
    const Evaluator* mc = registry.find("mc");
    if (exact != nullptr && exact->supports(request)) {
      selection.evaluator = exact;
    } else if (mc != nullptr && mc->supports(request)) {
      selection.evaluator = mc;
      selection.fallback = true;
      selection.note = "scenario '" + request.scenario.digest() +
                       "' exceeds the exact-evaluation cap; using seeded Monte Carlo";
    } else {
      throw Error("no engine supports scenario '" + request.scenario.digest() +
                  "' for this request");
    }
    metrics.selects.add();
    if (selection.fallback) metrics.fallbacks.add();
    DDM_SPAN("engine.select",
             {{"requested", "auto"},
              {"chosen", selection.evaluator->id().data()},
              {"fallback", selection.fallback ? std::int64_t{1} : std::int64_t{0}}});
    return selection;
  }
  // A loaded policy table (strictly resolved: a bad DDM_POLICY throws here
  // rather than silently dispatching cold) holds the compiled plan to the
  // REQUEST tolerance and ranks the double kernels for general points. With
  // no table the plan must also clear the fixed compiled_tolerance.
  const std::shared_ptr<CostModel> model = CostModel::configured();
  const bool consult = model != nullptr && !model->empty();
  const double request_tolerance = request.tolerance.to_double();
  if (consult) {
    selection.model_consulted = true;
    metrics.policy_consults.add();
  }
  if (request.is_symmetric() && request.n >= 1) {
    const double static_tolerance = std::min(policy.compiled_tolerance, request_tolerance);
    selection.evaluator = &select_symmetric(
        request, consult ? request_tolerance : static_tolerance, registry, selection);
    if (consult) {
      // The model path differs from the static rule only where the plan
      // certificate lies between the two tolerances.
      const bool static_compiled = selection.compiled_bound <= static_tolerance;
      const bool model_compiled = selection.evaluator->id() == "compiled";
      (static_compiled == model_compiled ? metrics.policy_static_wins
                                         : metrics.policy_model_wins)
          .add();
    }
  } else {
    selection.evaluator = consult ? &rank_general(*model, request, registry)
                                  : &registry.require("batch");
  }
  metrics.selects.add();
  if (selection.fallback) metrics.fallbacks.add();
  DDM_SPAN("engine.select", {{"requested", "auto"},
                             {"chosen", selection.evaluator->id().data()},
                             {"fallback", selection.fallback ? std::int64_t{1} : std::int64_t{0}}});
  return selection;
}

core::BatchObjective batch_objective(std::string_view engine_id) {
  // Resolve eagerly so a bad id fails at wiring time, not mid-search.
  const Evaluator& evaluator = Registry::instance().require(engine_id);
  return [&evaluator](const std::vector<std::vector<double>>& points, double t) {
    EvalRequest request = EvalRequest::general(points, util::exact_rational(t));
    return evaluator.evaluate(request).values;
  };
}

}  // namespace ddm::engine
