// merge — reassemble sharded sweep checkpoints into the unsharded output.
//
// `ddm_cli sweep --shard=i/k --checkpoint si.ckpt` leaves k checkpoint files,
// each holding the rows with index % k == i. merge validates that the given
// files belong to ONE sweep — headers must agree on every field except
// shard_index (grid, engine, resolved engine, scenario, tolerance, shard
// count), the shard indices must be exactly {0..k-1} with no duplicates, and
// every grid row must be present in its owning shard — then prints the
// byte-identical output of the equivalent unsharded `ddm_cli sweep` run.
// Doubles round-trip losslessly through the checkpoint (max_digits10 both
// ways), so byte-identity is exact, not approximate. Mismatched, duplicate,
// or incomplete inputs are rejected with exit 2 naming the offending field,
// shard, or row.
#include <iostream>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm::cli {

namespace {

/// First header field (other than shard_index) on which `other` disagrees
/// with `base`, or empty. Mirrors the checkpoint resume validation: name the
/// field, show both values.
std::string describe_shard_mismatch(const util::SweepParams& base,
                                    const util::SweepParams& other) {
  const auto differ = [](const char* field, const std::string& a, const std::string& b) {
    return std::string("field '") + field + "': " + (a.empty() ? "<absent>" : a) + " vs " +
           (b.empty() ? "<absent>" : b);
  };
  if (base.n != other.n) return differ("n", std::to_string(base.n), std::to_string(other.n));
  if (base.t != other.t) return differ("t", base.t, other.t);
  if (base.beta_lo != other.beta_lo) return differ("beta_lo", base.beta_lo, other.beta_lo);
  if (base.beta_hi != other.beta_hi) return differ("beta_hi", base.beta_hi, other.beta_hi);
  if (base.steps != other.steps) {
    return differ("steps", std::to_string(base.steps), std::to_string(other.steps));
  }
  if (base.engine != other.engine) return differ("engine", base.engine, other.engine);
  if (base.resolved != other.resolved) return differ("resolved", base.resolved, other.resolved);
  if (base.scenario != other.scenario) return differ("scenario", base.scenario, other.scenario);
  if (base.tolerance != other.tolerance) {
    return differ("tolerance", base.tolerance, other.tolerance);
  }
  if (base.shard_count != other.shard_count) {
    return differ("shard_count", std::to_string(base.shard_count),
                  std::to_string(other.shard_count));
  }
  return {};
}

}  // namespace

int run_merge(const std::vector<std::string>& args, const Options& options) {
  (void)options;
  DDM_SPAN("cli.merge", {{"shards", static_cast<std::int64_t>(args.size() - 1)}});
  std::vector<util::LoadedCheckpoint> shards;
  shards.reserve(args.size() - 1);
  for (std::size_t i = 1; i < args.size(); ++i) {
    shards.push_back(util::read_checkpoint(args[i]));
    if (shards.back().torn_tail) {
      std::cerr << "warning: '" << args[i]
                << "' has a torn trailing line (incomplete final row discarded)\n";
    }
  }

  // One sweep identity across every file, shard_index excepted.
  const util::SweepParams& base = shards.front().params;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const std::string mismatch = describe_shard_mismatch(base, shards[i].params);
    if (!mismatch.empty()) {
      throw BadArgument("merge: '" + args[1 + i] + "' belongs to a different sweep than '" +
                        args[1] + "' (" + mismatch + ")");
    }
  }

  // Exactly the shards 0..k-1, each once.
  if (shards.size() != base.shard_count) {
    throw BadArgument("merge: sweep has " + std::to_string(base.shard_count) +
                      " shards but " + std::to_string(shards.size()) + " checkpoints were given");
  }
  std::vector<const util::LoadedCheckpoint*> by_index(base.shard_count, nullptr);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::uint32_t index = shards[i].params.shard_index;
    if (index >= base.shard_count) {
      throw BadArgument("merge: '" + args[1 + i] + "' claims shard " + std::to_string(index) +
                        "/" + std::to_string(base.shard_count));
    }
    if (by_index[index] != nullptr) {
      throw BadArgument("merge: shard " + std::to_string(index) + "/" +
                        std::to_string(base.shard_count) + " appears more than once");
    }
    by_index[index] = &shards[i];
  }

  // Every grid row, from its owning shard. A missing row means that shard's
  // sweep was killed before finishing — resume it, then merge again.
  std::vector<util::SweepRow> rows;
  rows.reserve(base.steps + 1);
  for (std::uint32_t k = 0; k <= base.steps; ++k) {
    const util::LoadedCheckpoint& owner = *by_index[k % base.shard_count];
    const auto found = owner.rows.find(k);
    if (found == owner.rows.end()) {
      throw BadArgument("merge: row k=" + std::to_string(k) + " is missing from shard " +
                        std::to_string(k % base.shard_count) + "/" +
                        std::to_string(base.shard_count) +
                        " (resume that shard's sweep, then merge again)");
    }
    rows.push_back(found->second);
  }

  // Byte-identical to the unsharded sweep: t as a double from the exact
  // header rational, beta/p_win/bound straight from the lossless checkpoint
  // rows, every row answered by the engine the header pins.
  print_sweep_rows(base.n, util::Rational::parse(base.t).to_double(), base.scenario,
                   base.resolved, rows);
  return 0;
}

}  // namespace ddm::cli
