// resilient.hpp — resilient evaluation: retry, degradation chain, deadlines.
//
// engine::select (registry.hpp) answers "which engine SHOULD serve this
// request"; evaluate_resilient answers "get me an answer anyway". It resolves
// the policy, then walks a documented degradation chain when the preferred
// engine fails or runs out of time:
//
//   preferred engine        fallback chain (homogeneous default scenario)
//   ----------------        -----------------------------------------------
//   compiled                certified, mc        (a tier-0 point with its
//                                                 bound, then the estimate)
//   certified               mc                   (estimate under deadline
//                                                 pressure — honestly flagged)
//   exact / batch / mc      none                 (already the last resort)
//
// Under a generalized scenario (engine/scenario.hpp) the chains reshape:
// exact and certified degrade to mc (the only other engine that serves
// those games), everything else has no chain. Engines that decline a
// scenario via supports() are skipped inside the walk, so the two views
// stay consistent by construction.
//
// Per attempt, a ddm::ParallelError (a chunk exhausted its in-region
// retries) is retried at request level under ResilientOptions::retry —
// bounded attempts with deterministic exponential backoff, the sleeps capped
// by the request deadline. A ddm::Error failure (lowering failure, injected
// fault surviving retries) moves to the next engine in the chain. Deadline
// handling splits the remaining budget: an engine with a fallback runs under
// a *soft* deadline at half the remaining time, so when it is cut off the
// chain still has budget to produce a degraded answer; only when the real
// deadline fires does ddm::DeadlineExceeded propagate to the caller.
// ddm::Cancelled always propagates immediately — a cancelled request is
// never served by a fallback.
//
// Any answer produced below the preferred engine sets EvalOutcome::degraded
// and records the chain walked in degradation_note; when nothing fires the
// result is bitwise identical to `selection.evaluator->evaluate(request)`.
// Counters: engine.degraded, engine.retries, engine.chain_exhausted.
// See docs/robustness.md ("Degradation chain").
#pragma once

#include <string_view>
#include <vector>

#include "engine/evaluator.hpp"
#include "engine/policy.hpp"
#include "util/resilience.hpp"

namespace ddm::engine {

struct Selection;  // engine/registry.hpp

/// The documented fallback chain for a preferred engine id (see the table
/// above); empty for engines that are already the last resort. The
/// one-argument form is the homogeneous default scenario's chain.
[[nodiscard]] std::vector<std::string_view> fallback_chain(std::string_view id);
[[nodiscard]] std::vector<std::string_view> fallback_chain(std::string_view id,
                                                           const Scenario& scenario);

/// Knobs for evaluate_resilient.
struct ResilientOptions {
  /// Engine-selection policy, resolved via engine::select.
  EnginePolicy policy;
  /// Request deadline + cancellation; propagated into every attempt (and
  /// tightened to a soft deadline for engines that still have a fallback).
  util::RunControl control;
  /// Request-level retry for ddm::ParallelError failures. The default
  /// disables request-level retries (the parallel region already retried
  /// each chunk); serving callers attach real backoff.
  util::RetryPolicy retry{.max_retries = 0};
};

/// Evaluates `request` with retry + degradation as documented above. Throws
/// ddm::Cancelled on cancellation, ddm::DeadlineExceeded when the deadline
/// fires with no fallback able to answer in time, and the last engine's
/// error when the whole chain fails. Equivalent to engine::select followed
/// by the overload below.
[[nodiscard]] EvalOutcome evaluate_resilient(const ResilientOptions& options,
                                             const EvalRequest& request);

/// The same walk from an already-resolved `selection`: engine::select's
/// answer for this request, or for the grid this request is one block of. A
/// caller that splits one grid into blocks or shards resolves once and hands
/// every block the same selection, so they all start from the same engine.
[[nodiscard]] EvalOutcome evaluate_resilient(const Selection& selection,
                                             const EvalRequest& request,
                                             const util::RunControl& control = {},
                                             const util::RetryPolicy& retry = {.max_retries = 0});

}  // namespace ddm::engine
