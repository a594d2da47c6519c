// sweep — β-grid of Theorem 5.1 values, evaluated through the engine layer.
//
// One request path for every engine: the full grid is resolved once
// (cli::select_engine; --certify is --engine=certified with its tolerance),
// and the rows this process owns are evaluated in blocks through the
// degradation chain (cli::evaluate), each block carrying its rows' global
// grid indices as point ids. Every row names the engine that answered it
// and, when finite, that engine's proven bound (cli::print_sweep_rows, the
// format `merge` prints too). A certified row that misses its tolerance
// makes the exit status 3.
//
// --checkpoint evaluates 8 rows per block and appends each block before the
// next starts; the header pins the resolved engine, so a degraded block is
// an error (exit 2) rather than rows from a second engine.
#include <algorithm>
#include <optional>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/status.hpp"

namespace ddm::cli {

int run_sweep(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const util::Rational lo = parse_rational("beta_lo", args[3]);
  const util::Rational hi = parse_rational("beta_hi", args[4]);
  const std::uint32_t steps = parse_u32("steps", args[5]);
  if (n == 0) throw BadArgument("invalid n '0' (sweep needs n >= 1)");
  if (steps == 0) throw BadArgument("invalid steps '0' (sweep needs steps >= 1)");
  if (steps > util::kMaxSweepSteps) {
    throw BadArgument("invalid steps '" + args[5] + "' (sweep needs steps <= " +
                      std::to_string(util::kMaxSweepSteps) + ")");
  }
  const engine::Scenario scenario = resolve_scenario(options);
  if (!scenario.is_default()) {
    try {
      scenario.check_players(n, "sweep");
    } catch (const Error& error) {
      throw BadArgument(error.what());
    }
  }
  DDM_SPAN("cli.sweep", {{"n", static_cast<std::int64_t>(n)},
                         {"steps", static_cast<std::int64_t>(steps)}});

  const double lo_d = lo.to_double();
  const double hi_d = hi.to_double();
  std::vector<double> betas(steps + 1);
  for (std::uint32_t k = 0; k <= steps; ++k) {
    betas[k] =
        std::clamp(lo_d + (hi_d - lo_d) * static_cast<double>(k) / static_cast<double>(steps),
                   0.0, 1.0);
  }

  // Selection always sees the FULL grid, even when sharded: it must resolve
  // identically for every shard of one sweep (and for the unsharded run), or
  // `ddm_cli merge` could not reproduce it. The request then carries blocks.
  auto request = engine::EvalRequest::symmetric(n, t, betas);
  request.scenario = scenario;
  const engine::Selection selection = select_engine(options, request);

  // The header records the full run identity — grid, requested engine,
  // resolved engine, shard, game, tolerance — and a resume rejects any
  // mismatch by field.
  std::optional<util::SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    util::SweepParams params;
    params.n = n;
    params.t = t.to_string();
    params.beta_lo = lo.to_string();
    params.beta_hi = hi.to_string();
    params.steps = steps;
    params.engine = selection.requested;
    params.resolved = std::string(selection.id());
    params.shard_index = options.shard_index;
    params.shard_count = options.shard_count;
    params.scenario = scenario.digest();
    params.tolerance = request.tolerance.to_string();
    checkpoint.emplace(options.checkpoint_path, params, options.resume);
  }

  // The rows this process owns under --shard=i/k (strided, so shards stay
  // balanced on monotone-cost grids), reused verbatim from the checkpoint
  // when it already holds them.
  std::vector<util::SweepRow> rows;
  std::vector<std::size_t> missing;
  for (std::uint32_t k = 0; k <= steps; ++k) {
    if (k % options.shard_count != options.shard_index) continue;
    if (checkpoint && checkpoint->has(k)) {
      rows.push_back(checkpoint->completed().at(k));
    } else {
      missing.push_back(rows.size());
      rows.push_back({k, betas[k]});
    }
  }

  std::string engine_id(selection.id());
  bool met_tolerance = true;
  const std::size_t block = checkpoint ? 8 : std::max<std::size_t>(missing.size(), 1);
  for (std::size_t start = 0; start < missing.size(); start += block) {
    const std::size_t stop = std::min(start + block, missing.size());
    request.betas.clear();
    request.point_ids.clear();
    for (std::size_t i = start; i < stop; ++i) {
      request.betas.push_back(rows[missing[i]].beta);
      request.point_ids.push_back(rows[missing[i]].k);
    }
    const engine::EvalOutcome outcome = evaluate(selection, request);
    if (outcome.degraded && checkpoint) {
      throw Error("sweep: a block degraded (" + outcome.degradation_note + ") and checkpoint '" +
                  options.checkpoint_path + "' holds " + engine_id +
                  " rows only; rerun with --resume once the engine recovers");
    }
    engine_id = outcome.engine_id;
    for (std::size_t i = start; i < stop; ++i) {
      util::SweepRow& row = rows[missing[i]];
      row.p_win = outcome.values[i - start];
      row.bound = outcome.bound_at(i - start);
      if (i - start < outcome.certificates.size()) {
        met_tolerance = met_tolerance && outcome.certificates[i - start].met_tolerance;
      }
      if (checkpoint) checkpoint->append(row);
    }
  }
  print_sweep_rows(n, t.to_double(), scenario.digest(), engine_id, rows);
  return met_tolerance ? 0 : 3;
}

}  // namespace ddm::cli
