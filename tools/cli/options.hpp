// options.hpp — global flags pulled out of argv before positional dispatch.
//
// Flag grammar (identical across subcommands; per-command *acceptance* is
// enforced by cli::dispatch against the command table):
//   --certify[=tol]       --engine=certified with tolerance tol (volume: the
//                         geometric escalation ladder)
//   --checkpoint <file>   append-only JSONL checkpoint (sweep)
//   --resume <file>       reuse rows already in <file>, append the rest
//   --engine=<id>         evaluation engine: "auto" or any registered id
//   --shard=i/k           evaluate grid rows with index % k == i (sweep)
//   --scenario=<desc>     decision game: homogeneous (default),
//                         heterogeneous[:c_1,..,c_n], or deviating:<k>
//   --ranges=c_1,..,c_n   per-player ranges for --scenario=heterogeneous
//   --store=<dir>         plan store directory (plans; overrides DDM_PLAN_STORE)
//   --trace=<file>        export a Chrome trace at exit
//   --metrics[=json|prom] dump the metrics registry to stderr at exit
//   --help / -h           subcommand help (global usage without a command)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "util/rational.hpp"

namespace ddm::cli {

/// Options pulled out of argv before positional dispatch.
struct Options {
  /// The tolerance of --certify[=tol] (1e-9 when bare); unset without it.
  std::optional<util::Rational> certify;
  std::string checkpoint_path;
  bool resume = false;
  std::string trace_path;
  bool metrics = false;
  enum class MetricsFormat { kText, kJson, kProm } metrics_format = MetricsFormat::kText;
  /// Engine-selection policy: "auto" or a registered engine id. engine_set
  /// records whether --engine appeared at all; without it each subcommand
  /// applies its own default engine (cli::select_engine).
  std::string engine = "auto";
  bool engine_set = false;
  /// Deterministic grid partition (--shard=i/k): this process evaluates the
  /// rows with k-index % shard_count == shard_index. 0/1 = unsharded.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  bool shard_set = false;
  /// Decision game descriptor (--scenario=<desc>) and the companion
  /// heterogeneous ranges list (--ranges=c_1,..,c_n). Raw text here; the
  /// combination is validated and resolved by resolve_scenario() so every
  /// subcommand rejects malformed games with the same messages.
  std::string scenario;
  bool scenario_set = false;
  std::string ranges;
  bool ranges_set = false;
  /// Plan store directory (--store=<dir>); empty means DDM_PLAN_STORE.
  std::string store_dir;
  bool help = false;
};

/// argv split into positional arguments (command first) and global options.
struct CommandLine {
  std::vector<std::string> args;
  Options options;
};

/// Parses argv. Throws BadArgument on malformed or unknown flags; --engine
/// values are validated against the registry ("auto" plus every id).
[[nodiscard]] CommandLine parse_command_line(int argc, char** argv);

/// Resolves --scenario/--ranges into the game the request is posed over.
/// No flags = the paper's homogeneous default. Throws BadArgument on every
/// malformed combination: --ranges without --scenario=heterogeneous,
/// --scenario=heterogeneous without ranges (flag or inline), inline ranges
/// combined with --ranges, unknown scenario ids, and unparseable values.
[[nodiscard]] engine::Scenario resolve_scenario(const Options& options);

/// Turns collection on before dispatch. Tracing and metrics are both global
/// relaxed flags, so enabling them costs the instrumented code nothing until
/// an event actually fires.
void enable_observability(const Options& options);

/// Exports the trace and dumps metrics at exit — on the error path too, so a
/// failed run still leaves its diagnostics behind. Returns 0, or 2 when the
/// trace file cannot be written.
[[nodiscard]] int finalize_observability(const Options& options);

}  // namespace ddm::cli
