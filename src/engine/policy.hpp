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
//   * a grid → the compiled plan when one is already RESIDENT (plan cache or
//     plan store) and its exact certificate is <= the request tolerance;
//     auto never lowers a plan — lowering costs O(#breakpoints · n³) exact
//     algebra, more than the ladder spends on thousands of points;
//   * every other grid with n <= kCertifiedAutoMaxN → the certified ladder,
//     whose answers carry a proven bound — past kExactRungAutoMaxN only when
//     the tolerance is at or above tier 0's worst-case bound at (n, t), so
//     that no point can escalate;
//   * any other grid with no admissible resident plan → select throws a
//     ddm::Error naming the cap it passed and the engines that serve such
//     requests (`exact`, `certified`).
// A resident plan whose certificate misses the tolerance is a *visible*
// fallback: the Selection carries a note the caller surfaces (the CLI prints
// it to stderr and stamps the engine into sweep JSON). Plans become resident
// through `--engine=compiled`, `ddm_cli plans precompile` + a plan store, or
// an explicit PlanCache::get_or_lower.
#pragma once

#include <cstdint>
#include <string>

namespace ddm::engine {

/// The largest n auto sends to the certified ladder, and the largest n
/// ddm_serve admits. Tier 0 settles a point in O(n³) double arithmetic at
/// worst (about 55 ms at n = 1000 on one core) with a bound far below 1e-9
/// at t <= n. Past this cap auto refuses up front, by name.
inline constexpr std::uint32_t kCertifiedAutoMaxN = 1000;

/// The largest n at which auto lets a point escalate past tier 0 to the
/// exact rational rung: about a quarter second a point at n = 64, growing
/// as about n^3.6, and no deadline is set by default. Past it, auto takes
/// only requests whose tolerance tier 0 meets at every point.
inline constexpr std::uint32_t kExactRungAutoMaxN = 64;

/// Caller-supplied selection policy. Default-constructed == today's CLI
/// default (`--engine=auto`).
struct EnginePolicy {
  /// Registry id to force, or "auto" to let the policy decide.
  std::string engine = "auto";

  [[nodiscard]] bool is_auto() const noexcept { return engine == "auto"; }
};

}  // namespace ddm::engine
