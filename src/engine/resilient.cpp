#include "engine/resilient.hpp"

#include <exception>
#include <string>

#include "engine/registry.hpp"
#include "obs/metrics_registry.hpp"
#include "util/fault.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct ResilienceMetrics {
  obs::Counter degraded = obs::counter("engine.degraded");
  obs::Counter retries = obs::counter("engine.retries");
  obs::Counter chain_exhausted = obs::counter("engine.chain_exhausted");

  static const ResilienceMetrics& get() {
    static const ResilienceMetrics metrics;
    return metrics;
  }
};

/// The control an individual attempt runs under. An engine that still has a
/// fallback behind it gets a soft deadline at half the remaining budget, so
/// being cut off leaves time for the chain to answer; the last engine gets
/// the caller's real deadline. Cancellation always passes through verbatim.
[[nodiscard]] util::RunControl attempt_control(const util::RunControl& control,
                                              bool has_fallback) {
  if (!has_fallback || !control.deadline.is_set()) return control;
  util::RunControl soft = control;
  soft.deadline = util::Deadline::after(control.deadline.remaining() / 2);
  return soft;
}

}  // namespace

std::vector<std::string_view> fallback_chain(std::string_view id) {
  return fallback_chain(id, Scenario{});
}

std::vector<std::string_view> fallback_chain(std::string_view id, const Scenario& scenario) {
  if (!scenario.is_default()) {
    // Generalized games: the exact rational evaluators degrade to seeded
    // Monte Carlo (an estimate — honestly flagged via `degraded`); mc is
    // already the last resort. The homogeneous-only compiled and batch
    // engines never serve these requests, so they get no chain.
    if (id == "exact" || id == "certified") return {"mc"};
    return {};
  }
  if (id == "compiled") return {"certified", "mc"};
  if (id == "certified") return {"mc"};
  return {};
}

EvalOutcome evaluate_resilient(const ResilientOptions& options, const EvalRequest& request) {
  return evaluate_resilient(select(options.policy, request), request, options.control,
                            options.retry);
}

EvalOutcome evaluate_resilient(const Selection& selection, const EvalRequest& request,
                               const util::RunControl& control, const util::RetryPolicy& retry) {
  const ResilienceMetrics& metrics = ResilienceMetrics::get();

  std::vector<std::string_view> chain;
  chain.push_back(selection.id());
  for (const std::string_view id : fallback_chain(selection.id(), request.scenario)) {
    chain.push_back(id);
  }

  Registry& registry = Registry::instance();
  std::string note;
  std::exception_ptr last_error;
  for (std::size_t stage = 0; stage < chain.size(); ++stage) {
    const Evaluator* evaluator = registry.find(chain[stage]);
    if (evaluator == nullptr || !evaluator->supports(request)) continue;
    const bool has_fallback = stage + 1 < chain.size();

    EvalRequest attempt = request;
    for (unsigned tries = 0;; ++tries) {
      // Poll the REAL control before every attempt: a cancelled request or a
      // spent budget must not start (or re-start) work.
      switch (control.should_stop()) {
        case util::StopReason::kNone:
          break;
        case util::StopReason::kCancelled:
          throw Cancelled("engine.resilient", stage, chain.size());
        case util::StopReason::kDeadline:
          throw DeadlineExceeded("engine.resilient", stage, chain.size());
      }
      attempt.control = attempt_control(control, has_fallback);
      try {
        // Engine ids are literal-backed (Evaluator::id contract), so .data()
        // is a valid C string for the span attribute.
        DDM_SPAN("engine.attempt",
                 {{"engine", chain[stage].data()}, {"stage", static_cast<std::int64_t>(stage)}});
        EvalOutcome outcome = evaluator->evaluate(attempt);
        if (stage > 0) {
          outcome.degraded = true;
          outcome.degradation_note = note + " -> " + std::string(chain[stage]);
          metrics.degraded.add();
        }
        return outcome;
      } catch (const Cancelled&) {
        throw;  // never serve a cancelled request from a fallback
      } catch (const DeadlineExceeded&) {
        // Real deadline spent: propagate. Soft deadline: fall through to the
        // next engine with the remaining (real) budget.
        if (control.should_stop() == util::StopReason::kDeadline) throw;
        last_error = std::current_exception();
        if (!note.empty()) note += " -> ";
        note += std::string(chain[stage]) + ": deadline pressure";
        break;
      } catch (const ParallelError&) {
        // A chunk exhausted its in-region retries — transient territory, so
        // retry the whole request under the backoff policy before degrading.
        last_error = std::current_exception();
        if (tries >= retry.max_retries) {
          if (!note.empty()) note += " -> ";
          note += std::string(chain[stage]) + ": evaluation failed";
          break;
        }
        metrics.retries.add();
        util::sleep_with_deadline(retry.delay_before(tries + 1, stage),
                                  control.deadline);
      } catch (const util::fault::TransientFault&) {
        // An injected fault outside any parallel region (e.g. striking plan
        // lowering) — same transient treatment as ParallelError.
        last_error = std::current_exception();
        if (tries >= retry.max_retries) {
          if (!note.empty()) note += " -> ";
          note += std::string(chain[stage]) + ": evaluation failed";
          break;
        }
        metrics.retries.add();
        util::sleep_with_deadline(retry.delay_before(tries + 1, stage),
                                  control.deadline);
      } catch (const Error&) {
        // Lowering failure, unsupported edge, injected hard fault: move down
        // the chain immediately — repeating a deterministic failure is waste.
        last_error = std::current_exception();
        if (!note.empty()) note += " -> ";
        note += std::string(chain[stage]) + ": evaluation failed";
        break;
      }
    }
  }
  metrics.chain_exhausted.add();
  if (last_error) std::rethrow_exception(last_error);
  throw Error("engine.resilient: no registered engine supports this request (chain head '" +
              std::string(chain.front()) + "')");
}

}  // namespace ddm::engine
