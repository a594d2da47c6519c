#include "cli/command.hpp"

#include <array>
#include <iostream>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace ddm::cli {

namespace {

constexpr std::size_t kNoMax = static_cast<std::size_t>(-1);

constexpr std::array<Command, 10> kCommands{{
    {"oblivious", "oblivious <n> <t>",
     "exact optimal oblivious protocol (Thm 4.3)",
     "Computes the optimal oblivious (input-ignoring, anonymous) protocol:\n"
     "every player picks bin 1 with probability alpha = 1/2, the unique\n"
     "stationary point of Theorem 4.3. Prints the exact winning probability\n"
     "and the gradient residual at 1/2 (Corollary 4.2).",
     3, 3, false, false, false, false, false, false, run_oblivious},
    {"threshold", "threshold <n> <t> <beta> [--certify[=tol]] [--engine=<id>]\n"
                  "                      [--scenario=<desc>] [--ranges=c_1,..,c_n]",
     "P of a symmetric threshold protocol (Thm 5.1)",
     "Evaluates the winning probability of the symmetric single-threshold\n"
     "protocol (every player chooses bin 1 iff its input <= beta) as one\n"
     "engine request: the exact Theorem 5.1 formula by default (auto under\n"
     "--scenario), or the engine --engine names; the value line names the\n"
     "engine that answered. --certify is --engine=certified with tolerance\n"
     "tol and prints a rigorous enclosure (exit 3 when the tolerance is\n"
     "missed). --scenario poses the same protocol over a generalized game\n"
     "(docs/scenarios.md): heterogeneous ranges x_i ~ U[0, c_i] (beta then\n"
     "scales each player's threshold to beta*c_i) or k adversarially\n"
     "deviating players (deviating:<k>, worst case over the adversary's bin\n"
     "split).",
     4, 4, true, false, true, false, false, true, run_threshold},
    {"analyze", "analyze <n> <t> [digits=30] [--engine=<id>] [--scenario=<desc>]\n"
                "                    [--ranges=c_1,..,c_n]",
     "full Section 5.2 analysis: pieces, optimality condition, certified beta*",
     "Builds the exact piecewise polynomial P(beta), prints every piece, the\n"
     "optimality condition, and the certified optimal threshold beta*\n"
     "refined to the requested number of digits. --engine appends a\n"
     "cross-check of P at beta* through the named engine. Under a\n"
     "generalized --scenario the closed-form pieces do not apply; analyze\n"
     "switches to numeric optimization (iterated grid refinement on the\n"
     "scenario-aware engine) and says so — the reported beta* is a numeric\n"
     "estimate, not a certified root.",
     3, 4, false, false, true, false, false, true, run_analyze},
    {"simulate", "simulate <n> <t> <beta> <trials> [seed=42] [--engine=<id>]",
     "Monte Carlo cross-check",
     "Estimates the threshold protocol's winning probability by simulation\n"
     "and checks that the 95% confidence interval covers the reference\n"
     "value, computed by the exact engine or the one --engine names.",
     5, 6, false, false, true, false, false, false, run_simulate},
    {"volume", "volume <m> <sigma_1..sigma_m> <pi_1..pi_m> [--certify[=tol]]",
     "Vol(simplex ∩ box), Proposition 2.2",
     "Computes the exact volume of the intersection of a scaled simplex and\n"
     "an axis-aligned box (Proposition 2.2), the geometric core of the\n"
     "winning-probability formulas. --certify evaluates through the\n"
     "escalation ladder and prints a rigorous enclosure.",
     2, kNoMax, true, false, false, false, false, false, run_volume},
    {"ladder", "ladder <n> <t> [trials=500000]",
     "information ladder: deterministic / oblivious / threshold / oracle",
     "Prints the information ladder for one instance: deterministic\n"
     "all-one-bin, optimal oblivious coin, optimal own-input threshold, and\n"
     "(for n <= 20) a Monte Carlo full-information oracle estimate.",
     3, 4, false, false, false, false, false, false, run_ladder},
    {"deviate", "deviate <n> <t> <beta> <k> [trials=200000]",
     "worst-case P of a threshold protocol under k deviating players",
     "Analyzes the symmetric threshold-beta protocol when k of the n\n"
     "players deviate adversarially (obliviously: a deviator picks a bin,\n"
     "not a function of the inputs). By symmetry the adversary's strategy\n"
     "space collapses to j, the number of deviators sent to bin 0; the\n"
     "report prints P_j for every j, the worst case (the adversary's\n"
     "optimum), and a seeded Monte Carlo cross-check. For n up to 14 the\n"
     "per-strategy values are exact rationals (Lemma 2.4 conditioning);\n"
     "beyond that cap the analysis is Monte Carlo only and says so.",
     5, 6, false, false, false, false, false, false, run_deviate},
    {"sweep", "sweep <n> <t> <beta_lo> <beta_hi> <steps> [--certify[=tol]]\n"
              "                  [--checkpoint <file>] [--resume <file>] [--engine=<id>]\n"
              "                  [--shard=i/k] [--scenario=<desc>] [--ranges=c_1,..,c_n]",
     "β-grid of Theorem 5.1 values, fanned across the thread pool, as JSON",
     "Evaluates P(beta) on a uniform grid and emits one JSON row per point.\n"
     "The default --engine=auto picks the compiled Horner plan when one is\n"
     "resident (cached, or in a plan store) and its certified error bound is\n"
     "within 1e-9, and the certified ladder otherwise (n <= 1000; past\n"
     "that auto refuses and names --engine=exact|certified); auto never\n"
     "lowers a plan itself. Every row names the engine that answered it and,\n"
     "when finite, its proven error bound; fallbacks and degradations are\n"
     "announced on stderr. --certify is --engine=certified with tolerance\n"
     "tol (exit 3 when a point misses it). --checkpoint and --resume make\n"
     "the sweep crash-safe, and --shard=i/k evaluates only the rows with\n"
     "index % k == i: run k sharded sweeps (each with its own checkpoint),\n"
     "then `ddm_cli merge` reconstructs the byte-identical unsharded output\n"
     "(docs/robustness.md). --scenario sweeps the same grid over a\n"
     "generalized game (docs/scenarios.md); rows then carry a \"scenario\"\n"
     "field and the checkpoint header pins the game, so shards of different\n"
     "games can never be merged.",
     6, 6, true, true, true, true, false, true, run_sweep},
    {"plans", "plans <precompile <n_max> <t> [tol] | list | validate> [--store=<dir>]",
     "persistent plan store: precompile, inspect, validate (docs/performance.md)",
     "Operates on the on-disk compiled-plan store (poly/plan_store.hpp).\n"
     "`precompile` lowers the Theorem 5.1 plan for every n <= n_max at\n"
     "capacity t and persists each plan that clears the tolerance (default\n"
     "1e-9, the request tolerance auto holds plans to by default) together\n"
     "with its exact rational error certificates. `list` and `validate` read\n"
     "every *.plan file back through full validate-on-load; `validate` exits\n"
     "3 when any file is rejected. The store directory comes from\n"
     "--store=<dir> or the DDM_PLAN_STORE environment variable; a\n"
     "store-backed `ddm_cli sweep` or ddm_serve answers its first compiled\n"
     "query without lowering.",
     2, 5, false, false, false, false, true, false, run_plans},
    {"merge", "merge <ckpt> [<ckpt>...]",
     "merge sharded sweep checkpoints into the unsharded JSON output",
     "Validates that the given checkpoints belong to ONE sharded sweep —\n"
     "headers must agree on grid, engine, resolved engine, scenario, and\n"
     "shard count, every shard 0..k-1 must be present once, and every row\n"
     "must be covered — then emits the byte-identical output of the\n"
     "equivalent unsharded `ddm_cli sweep` run. Mismatched or incomplete\n"
     "inputs are rejected with exit 2 naming the offending field or row.",
     2, kNoMax, false, false, false, false, false, false, run_merge},
}};

}  // namespace

std::span<const Command> command_table() { return kCommands; }

const Command* find_command(std::string_view name) noexcept {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

void print_usage() {
  std::cout <<
      R"(ddm_cli — optimal distributed decision-making with no communication
(Georgiades/Mavronicolas/Spirakis, FCT'99)

usage:
  ddm_cli oblivious <n> <t>
  ddm_cli threshold <n> <t> <beta> [--certify[=tol]] [--engine=<id>]
                    [--scenario=<desc>] [--ranges=c_1,..,c_n]
  ddm_cli analyze   <n> <t> [digits=30] [--engine=<id>] [--scenario=<desc>]
                    [--ranges=c_1,..,c_n]
  ddm_cli simulate  <n> <t> <beta> <trials> [seed=42] [--engine=<id>]
  ddm_cli volume    <m> <sigma_1..sigma_m> <pi_1..pi_m> [--certify[=tol]]
  ddm_cli ladder    <n> <t> [trials=500000]
  ddm_cli deviate   <n> <t> <beta> <k> [trials=200000]
  ddm_cli sweep     <n> <t> <beta_lo> <beta_hi> <steps> [--certify[=tol]]
                    [--checkpoint <file>] [--resume <file>] [--engine=<id>]
                    [--shard=i/k] [--scenario=<desc>] [--ranges=c_1,..,c_n]
  ddm_cli plans     <precompile <n_max> <t> [tol] | list | validate>
                    [--store=<dir>]
  ddm_cli merge     <ckpt> [<ckpt>...]
  ddm_cli help      <command>

any subcommand also accepts:
  --trace=<file>         export a Chrome trace of the run to <file>
  --metrics[=json|prom]  dump the metrics registry to stderr at exit

scenarios (--scenario=<desc>, docs/scenarios.md):
  homogeneous                 x_i ~ U[0, 1] — the paper's game (default)
  heterogeneous:c_1,..,c_n    x_i ~ U[0, c_i]; or --scenario=heterogeneous
                              with the ranges in --ranges=c_1,..,c_n
  deviating:<k>               k players deviate adversarially; worst case

engines (--engine=<id>, docs/architecture.md):
  auto       a resident compiled plan certified to the request
             tolerance (1e-9), else the certified ladder (n <= 1000) —
             the choice is reported (default)
  batch      parallel O(3^n) Gray-code double kernel (n <= 20)
  certified  escalation ladder with rigorous enclosures (--certify)
  compiled   certified double Horner plan via the LRU plan cache
  exact      exact rational Theorem 5.1 evaluation
  mc         seeded Monte Carlo estimation

rationals may be written a/b (e.g. 4/3). Examples:
  ddm_cli analyze 3 1            # the paper's flagship instance
  ddm_cli analyze 4 4/3 40       # Section 5.2.2 with 40 certified digits
  ddm_cli simulate 3 1 0.622 1000000
  ddm_cli threshold 24 8 0.37 --certify=1/1000000000000
  ddm_cli threshold 3 1 0.5 --scenario=heterogeneous --ranges=1/2,1,2
  ddm_cli deviate 6 2 0.62 2       # robustness margin under 2 deviators
  ddm_cli sweep 3 1 0 1 50 --scenario=deviating:1   # worst-case grid
  ddm_cli sweep 4 4/3 0 1 100    # JSON grid of P(beta), all cores
  ddm_cli sweep 12 4 0 1 10000 --engine=compiled   # certified Horner plan
  ddm_cli sweep 4 4/3 0 1 100 --checkpoint sweep.ckpt   # crash-safe
  ddm_cli sweep 4 4/3 0 1 100 --resume sweep.ckpt       # finish a killed run
  ddm_cli sweep 24 8 0.3 0.45 8 --certify --trace=sweep.json --metrics
  ddm_cli sweep 6 2 0 1 30 --shard=0/3 --checkpoint s0.ckpt   # 1 of 3 shards
  ddm_cli merge s0.ckpt s1.ckpt s2.ckpt   # byte-identical unsharded output
  ddm_cli plans precompile 12 4 --store=plans/   # warm-start plan store
)";
}

int usage() {
  print_usage();
  return 1;
}

void print_command_help(const Command& command) {
  std::cout << "usage: ddm_cli " << command.synopsis << "\n\n"
            << command.summary << "\n\n"
            << command.help << "\n\n"
            << "common options:\n"
            << "  --trace=<file>         export a Chrome trace of the run to <file>\n"
            << "  --metrics[=json|prom]  dump the metrics registry to stderr at exit\n";
}

int dispatch(const std::vector<std::string>& args, const Options& options) {
  const std::string& name = args[0];
  if (name == "help") {
    if (args.size() == 2) {
      if (const Command* command = find_command(args[1])) {
        print_command_help(*command);
        return 0;
      }
      throw BadArgument("unknown command '" + args[1] + "' (see ddm_cli usage)");
    }
    if (args.size() == 1) {
      print_usage();
      return 0;
    }
    return usage();
  }
  const Command* command = find_command(name);
  if (command == nullptr) return usage();
  if (options.help) {
    print_command_help(*command);
    return 0;
  }
  // Flag-set validation precedes arity so flag misuse is diagnosed by name
  // (exit 2), matching the pre-refactor CLI.
  if (options.certify && !command->accepts_certify) {
    throw BadArgument("--certify is only supported by 'threshold', 'volume', and 'sweep'");
  }
  if (!options.checkpoint_path.empty() && !command->accepts_checkpoint) {
    throw BadArgument("--checkpoint/--resume are only supported by 'sweep'");
  }
  if (options.shard_set && !command->accepts_shard) {
    throw BadArgument("--shard is only supported by 'sweep'");
  }
  if (!options.store_dir.empty() && !command->accepts_store) {
    throw BadArgument("--store is only supported by 'plans'");
  }
  if ((options.scenario_set || options.ranges_set) && !command->accepts_scenario) {
    throw BadArgument(
        "--scenario/--ranges are only supported by 'threshold', 'analyze', and 'sweep'");
  }
  if (options.engine_set) {
    if (!command->accepts_engine) {
      throw BadArgument(
          "--engine is only supported by 'threshold', 'analyze', 'simulate', and 'sweep'");
    }
    if (options.certify) {
      throw BadArgument(
          "--engine cannot be combined with --certify (--certify is --engine=certified)");
    }
  }
  if (args.size() < command->min_args || args.size() > command->max_args) return usage();
  // DDM_SIMD and DDM_THREADS resolve before the handler runs: an auto sweep
  // answered by the certified ladder may reach neither a vector kernel nor
  // the pool, and a malformed value must fail the same way whichever engine
  // answers.
  (void)util::simd::dispatch_width();
  (void)util::parallelism();
  return command->run(args, options);
}

}  // namespace ddm::cli
