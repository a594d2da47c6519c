// evaluator.hpp — the unified evaluation-engine interface of ddm::engine.
//
// Several backends can evaluate the Theorem 5.1 winning probability of the
// anonymous threshold game: exact rational arithmetic, the O(3^n) Gray-code
// double kernel, compiled Horner plans lowered from the exact piecewise
// polynomial, the certified escalation ladder, and Monte Carlo simulation.
// Before this layer existed, the policy choosing among them lived as ad-hoc
// branching inside ddm_cli. ddm::engine puts all of them behind ONE seam: a
// request describes *what* to evaluate (a symmetric β-grid — every player
// uses each β, as in Theorem 5.2 and Section 5.2 — plus capacity t and a
// tolerance), an Evaluator adapter describes *how*, and the process-wide
// registry (engine/registry.hpp) owns the which — including the auto policy
// (engine/policy.hpp) and the LRU plan cache (engine/plan_cache.hpp). New
// backends register once and every caller (CLI subcommands, ddm_serve,
// examples) picks them up for free.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/scenario.hpp"
#include "util/certify.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"

namespace ddm::engine {

/// What kind of answer an engine produces. Used by callers to decide how to
/// present results (e.g. whether a tolerance or a confidence interval makes
/// sense) — never to silently change them.
enum class Determinism {
  /// Bitwise-reproducible double evaluation: same request, same bits, for
  /// any thread count (batch, compiled, exact).
  kDeterministic,
  /// Rigorous enclosure semantics: every value carries a proven interval
  /// (the certified escalation ladder).
  kCertified,
  /// Seeded pseudo-random estimation: reproducible for a fixed seed, but an
  /// estimate, not a computation (Monte Carlo).
  kRandomized,
};

[[nodiscard]] const char* to_string(Determinism determinism) noexcept;

/// One batch of evaluation work: a symmetric β-grid (`betas`), all n players
/// sharing each threshold. It may also carry the exact rational image of the
/// grid (`exact_betas`) for engines that evaluate in exact arithmetic on the
/// caller's *intended* points (a `ddm_cli threshold` beta such as 311/500);
/// without it they evaluate the double values exactly via
/// util::exact_rational.
struct EvalRequest {
  std::uint32_t n = 0;                      ///< players
  util::Rational t;                         ///< bin capacity
  std::vector<double> betas;                ///< symmetric grid, double image
  std::vector<util::Rational> exact_betas;  ///< optional exact grid, parallel to betas
  /// Target enclosure width for certified evaluation.
  util::Rational tolerance{1, 1000000000};
  /// Trial count / base seed for randomized engines. Point k of a request
  /// draws from a stream keyed on seed + point_ids[k] (seed + k when
  /// point_ids is empty), so estimates are reproducible and independent of
  /// evaluation order.
  std::uint64_t trials = 200000;
  std::uint64_t seed = 42;
  /// Optional stable per-point identities, parallel to betas. Callers
  /// that split one logical grid across several requests (checkpoint blocks,
  /// sweep shards) pass the GLOBAL grid indices here so randomized engines
  /// key their streams on the point's identity, not its position within the
  /// request — a sharded or checkpointed Monte Carlo sweep then reproduces
  /// the unsharded run bit for bit. Deterministic engines ignore it.
  std::vector<std::uint64_t> point_ids;
  /// Cooperative stop for THIS request: engines poll it at their natural
  /// work boundaries (parallel chunks, escalation-ladder rungs, per-point
  /// loops) and surface a fired deadline/cancellation as
  /// ddm::DeadlineExceeded / ddm::Cancelled with partial-progress counts.
  /// Default-constructed = run to completion at zero polling cost.
  util::RunControl control;
  /// The game this request is posed over (engine/scenario.hpp). Defaults to
  /// the paper's homogeneous U[0,1] game; engines that cannot serve a
  /// generalized game decline it via supports().
  Scenario scenario;

  [[nodiscard]] static EvalRequest symmetric(std::uint32_t n, util::Rational t,
                                             std::vector<double> betas) {
    EvalRequest request;
    request.n = n;
    request.t = std::move(t);
    request.betas = std::move(betas);
    return request;
  }

  [[nodiscard]] std::size_t size() const noexcept { return betas.size(); }
};

/// The answer to an EvalRequest. `values[k]` corresponds to point k of the
/// request; the remaining fields say how much to trust it.
struct EvalOutcome {
  std::vector<double> values;
  /// Per-point rigorous enclosures; empty unless the engine is
  /// certificate-bearing (exact, certified).
  std::vector<CertifiedValue> certificates;
  /// Registry id of the engine that actually produced the values.
  std::string engine_id;
  /// Uniform bound on |values[k] − exact| when the engine carries one:
  /// 0 for exact evaluation, the plan certificate for compiled plans, the
  /// largest per-point CertifiedValue::error_bound() for the certified
  /// ladder, +inf when no a-priori bound exists (batch kernel, Monte Carlo).
  double certificate_bound = std::numeric_limits<double>::infinity();
  /// Escalation-ladder counters accumulated across the request (certified
  /// engine only; zero elsewhere).
  EvalStats stats;
  /// True when the answer was produced by a weaker engine than the request
  /// asked for (deadline pressure or a failing preferred engine made
  /// engine::evaluate_resilient walk its fallback chain). `degradation_note`
  /// then records the chain walked, e.g. "compiled: evaluation failed ->
  /// certified". Plain Evaluator::evaluate never sets these.
  bool degraded = false;
  std::string degradation_note;

  /// Bound on |values[k] − exact| for point k alone: its own certificate when
  /// the engine returned per-point enclosures, else certificate_bound. A
  /// per-point figure does not depend on which other points shared the
  /// request, so sweep rows and coalesced replies can print it.
  [[nodiscard]] double bound_at(std::size_t k) const {
    return k < certificates.size() ? certificates[k].error_bound() : certificate_bound;
  }
};

/// One evaluation backend. Implementations are stateless (any per-instance
/// artifacts such as compiled plans live in the shared plan cache), so a
/// single registered instance serves concurrent callers.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Stable registry id ("exact", "batch", "compiled", "certified", "mc").
  /// Must point at storage with static lifetime.
  [[nodiscard]] virtual std::string_view id() const noexcept = 0;

  [[nodiscard]] virtual Determinism determinism() const noexcept = 0;

  /// One-line human-readable description for help text and docs.
  [[nodiscard]] virtual std::string_view describe() const noexcept = 0;

  /// True when this engine can serve `request` (shape and size limits).
  /// evaluate() on an unsupported request throws ddm::Error naming the
  /// limit; supports() lets policy code skip the attempt.
  [[nodiscard]] virtual bool supports(const EvalRequest& request) const = 0;

  /// Evaluates the request. Throws on unsupported requests, lowering
  /// failures (compiled), or evaluation errors; never returns partial
  /// results.
  [[nodiscard]] virtual EvalOutcome evaluate(const EvalRequest& request) const = 0;
};

}  // namespace ddm::engine
