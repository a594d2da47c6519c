// policy.hpp — the engine-selection policy of ddm::engine.
//
// Home of the constants that used to live as ad-hoc branching in
// tools/ddm_cli.cpp (`kCompiledAutoTolerance`, `kCompiledAutoMaxN`): they are
// library policy, shared by the CLI, the examples, and the tests, so they
// live in the library. An EnginePolicy names either a concrete engine id or
// "auto"; engine::select (engine/registry.hpp) resolves it against a request.
//
// The auto rule for the homogeneous game:
//   * general (per-player) points → batch kernel
//   * symmetric grids → the compiled plan when it is cheap and certified:
//     its certificate clears the tolerance AND either n <= compiled_max_n
//     (lowering is milliseconds) or a plan for (n, t) is already resident
//     (plan cache or plan store — never lowered here);
//   * every other symmetric grid with n <= kCertifiedAutoMaxN → the
//     certified O(n²) ladder, whose answers carry a proven bound;
//   * symmetric n > kCertifiedAutoMaxN → batch, which declines with a named
//     error before any work starts.
// A failed lowering, or a considered plan whose certificate misses, is a
// *visible* fallback: the Selection carries a note the caller surfaces (the
// CLI prints it to stderr and stamps the engine into sweep JSON).
#pragma once

#include <cstdint>
#include <string>

namespace ddm::engine {

/// Tolerance the auto policy holds the compiled plan's certificate to.
inline constexpr double kCompiledAutoTolerance = 1e-9;

/// The largest n auto lowers a plan for: at t = n/3 the n = 8 plan is the
/// last to certify 1e-9 (n = 9 certifies 2.8e-9, n = 10 only 5.2e-8), so a
/// larger lowering would be thrown away. Forcing engine "compiled" still
/// lowers at any n, and resident plans are used at any n.
inline constexpr std::uint32_t kCompiledAutoMaxN = 8;

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
  /// Auto mode: maximum compiled-plan certificate accepted (a tighter
  /// request tolerance tightens it further).
  double compiled_tolerance = kCompiledAutoTolerance;
  /// Auto mode: n cap for lowering a plan that is not already resident.
  std::uint32_t compiled_max_n = kCompiledAutoMaxN;

  [[nodiscard]] bool is_auto() const noexcept { return engine == "auto"; }
};

}  // namespace ddm::engine
