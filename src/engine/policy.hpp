// policy.hpp — the engine-selection policy of ddm::engine.
//
// Home of the constants that used to live as ad-hoc branching in
// tools/ddm_cli.cpp: they are library policy, shared by the CLI, the
// examples, and the tests, so they live in the library. An EnginePolicy
// names either a concrete engine id or "auto"; engine::select
// (engine/registry.hpp) resolves it against a request.
//
// The auto rule for the homogeneous game has one tolerance in it — the
// request's own (EvalRequest::tolerance, 1e-9 by default):
//   * symmetric grids → the compiled plan when one is already RESIDENT
//     (plan cache or plan store) and its exact certificate is <= the request
//     tolerance; auto never lowers a plan — lowering costs
//     O(#breakpoints · n³) exact algebra, more than the ladder spends on
//     thousands of points;
//   * every other symmetric grid with n <= kCertifiedAutoMaxN → the
//     certified O(n²) ladder, whose answers carry a proven bound;
//   * symmetric n > kCertifiedAutoMaxN with no admissible resident plan →
//     select throws a ddm::Error naming the cap and the engines that serve
//     such requests (`exact`, `certified`);
//   * general (per-player) points → the batch kernel.
// A resident plan whose certificate misses the tolerance is a *visible*
// fallback: the Selection carries a note the caller surfaces (the CLI prints
// it to stderr and stamps the engine into sweep JSON). Plans become resident
// through `--engine=compiled`, `ddm_cli plans precompile` + a plan store, or
// an explicit PlanCache::get_or_lower.
#pragma once

#include <cstdint>
#include <string>

namespace ddm::engine {

/// The largest n auto sends to the certified ladder. Its exact rung grows
/// about as n^3.6 (for a double beta: 0.25 s per point at n = 64, 3 s at
/// n = 128), so past this cap auto refuses up front instead of pinning a
/// worker.
inline constexpr std::uint32_t kCertifiedAutoMaxN = 64;

/// Caller-supplied selection policy. Default-constructed == today's CLI
/// default (`--engine=auto`).
struct EnginePolicy {
  /// Registry id to force, or "auto" to let the policy decide.
  std::string engine = "auto";

  [[nodiscard]] bool is_auto() const noexcept { return engine == "auto"; }
};

}  // namespace ddm::engine
