// registry.hpp — the process-wide engine registry and selection policy.
//
// Registry::instance() owns one Evaluator per backend (engine/evaluator.hpp)
// and registers the five built-ins on first use:
//
//   id          determinism     backend
//   ---------   -------------   ----------------------------------------------
//   exact       deterministic   exact Rational Theorem 5.1 (O(n²) symmetric)
//   batch       deterministic   the serial Gray-code kernel
//                               core::threshold_winning_probability,
//                               O(3^n)/point, fanned across the pool
//   compiled    deterministic   certified Horner plan via the LRU plan cache
//   certified   certified       escalation ladder (rigorous enclosures)
//   mc          randomized      seeded Monte Carlo estimation
//
// `select` resolves an EnginePolicy against a request: a concrete id is
// looked up directly, "auto" applies the one rule of engine/policy.hpp —
// a grid goes to a resident compiled plan whose certificate is <= the
// REQUEST tolerance, or else the certified ladder (auto never lowers a
// plan). The selection is returned —
// never applied silently: when auto declines a resident plan, the Selection
// carries a human-readable note so callers can surface the fallback (the CLI
// prints it to stderr and stamps the winning engine into sweep JSON).
//
// Observability: `engine.select` spans (args: requested id, chosen id) and
// `engine.selects` / `engine.fallbacks` counters; the plan cache adds
// `engine.cache` spans and hit/miss/eviction counters.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/evaluator.hpp"
#include "engine/policy.hpp"

namespace ddm::engine {

class Registry {
 public:
  /// The process-wide registry, with the built-in engines registered.
  [[nodiscard]] static Registry& instance();

  /// Adds an engine. Throws ddm::Error when the id is empty or already
  /// taken. Thread-compatible: registration happens at startup / test setup,
  /// not concurrently with lookups.
  void register_engine(std::unique_ptr<Evaluator> evaluator);

  /// Engine by id, or nullptr.
  [[nodiscard]] const Evaluator* find(std::string_view id) const noexcept;

  /// Engine by id; throws ddm::Error listing the registered ids when absent.
  [[nodiscard]] const Evaluator& require(std::string_view id) const;

  /// Registered ids, sorted.
  [[nodiscard]] std::vector<std::string_view> ids() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  std::vector<std::unique_ptr<Evaluator>> engines_;
};

/// The outcome of resolving an EnginePolicy against a request.
struct Selection {
  const Evaluator* evaluator = nullptr;
  /// What the policy asked for ("auto" or a concrete id).
  std::string requested;
  /// True when the policy was "auto" (the chosen engine then appears in
  /// per-point reporting and fallbacks carry a note).
  bool auto_mode = false;
  /// True when auto considered a resident compiled plan and declined it
  /// (certificate over tolerance).
  bool fallback = false;
  /// One-line reason for the fallback, empty otherwise.
  std::string note;
  /// The certified max-error bound of the resident compiled plan auto
  /// considered (NaN when no plan for the instance was resident).
  double compiled_bound = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] std::string_view id() const noexcept { return evaluator->id(); }
};

/// Resolves `policy` against `request` on the process registry. Forced ids
/// throw ddm::Error when unknown or unsupported for the request's shape.
/// "auto" throws ddm::Error for a symmetric homogeneous request with no
/// admissible resident plan and either n > kCertifiedAutoMaxN, or
/// n > kExactRungAutoMaxN and a tolerance below tier 0's worst-case bound —
/// the message names the cap and the engines that serve it (`exact`,
/// `certified`) — and for a generalized scenario no engine supports.
[[nodiscard]] Selection select(const EnginePolicy& policy, const EvalRequest& request);

}  // namespace ddm::engine
