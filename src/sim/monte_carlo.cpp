#include "sim/monte_carlo.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace ddm::sim {

SimResult wilson_interval(std::uint64_t wins, std::uint64_t trials) {
  if (trials == 0) throw std::invalid_argument("wilson_interval: zero trials");
  if (wins > trials) throw std::invalid_argument("wilson_interval: wins > trials");
  constexpr double z = 1.959963984540054;  // 97.5th percentile of N(0,1)
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(wins) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));

  SimResult result;
  result.estimate = p;
  result.standard_error = std::sqrt(p * (1.0 - p) / n);
  result.ci_low = std::max(0.0, center - half);
  result.ci_high = std::min(1.0, center + half);
  result.wins = wins;
  result.trials = trials;
  return result;
}

// The blocks (core::kTrialsPerBlock trials each) and their streams depend
// only on `trials`, never on the thread count, so the wins tally is bitwise
// identical for any number of workers.
using core::kTrialsPerBlock;

SimResult estimate_winning_probability(const core::Protocol& protocol, double t,
                                       std::uint64_t trials, prob::Rng& rng, unsigned threads,
                                       const util::RunControl& control) {
  if (trials == 0) throw std::invalid_argument("estimate_winning_probability: zero trials");
  if (threads == 0) threads = 1;
  const std::size_t n = protocol.size();
  DDM_SPAN("mc.estimate", {{"trials", static_cast<std::int64_t>(trials)},
                           {"n", static_cast<std::int64_t>(n)}});

  // Block b covers trials [b·B, min((b+1)·B, trials)) with RNG stream
  // rng.split(b); `threads` only caps how many blocks run concurrently.
  // A threshold protocol runs the branch-free trial loop on unit ranges; it
  // draws and tallies exactly as the generic loop below would.
  const auto* threshold = dynamic_cast<const core::SingleThresholdProtocol*>(&protocol);
  const std::vector<double> unit_ranges(threshold != nullptr ? n : 0, 1.0);
  const std::uint64_t blocks = (trials + kTrialsPerBlock - 1) / kTrialsPerBlock;
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(blocks), 0);
  util::parallel_for(
      0, static_cast<std::size_t>(blocks),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> inputs(n);
        for (std::size_t b = lo; b < hi; ++b) {
          prob::Rng block_rng = rng.split(static_cast<std::uint64_t>(b));
          const std::uint64_t begin = static_cast<std::uint64_t>(b) * kTrialsPerBlock;
          const std::uint64_t end = std::min(trials, begin + kTrialsPerBlock);
          if (threshold != nullptr) {
            // The control reaches inside the block too: past 64 players one
            // block holds more than 2^20 draws.
            wins[b] = core::count_threshold_wins(unit_ranges, threshold->threshold_values(), t,
                                                 end - begin, block_rng, control);
            continue;
          }
          std::uint64_t block_wins = 0;
          for (std::uint64_t trial = begin; trial < end; ++trial) {
            for (double& x : inputs) x = block_rng.uniform();
            if (core::wins(protocol, inputs, t, block_rng)) ++block_wins;
          }
          wins[b] = block_wins;
        }
      },
      [&] {
        util::ParallelOptions options;
        options.max_workers = threads;
        options.label = "monte_carlo";
        options.control = control;
        // Blocks recreate their split RNG stream on every attempt, so a
        // retried chunk (transient fault or failed validation) recomputes
        // the identical tally.
        options.validate = [&wins](std::size_t lo, std::size_t hi) {
          for (std::size_t b = lo; b < hi; ++b) {
            if (wins[b] > kTrialsPerBlock) return false;
          }
          return true;
        };
        return options;
      }());
  std::uint64_t total_wins = 0;
  for (const std::uint64_t w : wins) total_wins += w;
  if (obs::metrics_enabled()) {
    static const obs::Counter mc_trials = obs::counter("mc.trials");
    static const obs::Counter mc_blocks = obs::counter("mc.blocks");
    static const obs::Counter mc_wins = obs::counter("mc.wins");
    mc_trials.add(trials);
    mc_blocks.add(blocks);
    mc_wins.add(total_wins);
  }
  return wilson_interval(total_wins, trials);
}

SimResult estimate_event_probability(std::size_t n,
                                     const std::function<bool(std::span<const double>)>& win,
                                     std::uint64_t trials, prob::Rng& rng) {
  if (trials == 0) throw std::invalid_argument("estimate_event_probability: zero trials");
  if (!win) throw std::invalid_argument("estimate_event_probability: empty predicate");
  std::vector<double> inputs(n);
  std::uint64_t wins = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    for (double& x : inputs) x = rng.uniform();
    if (win(inputs)) ++wins;
  }
  return wilson_interval(wins, trials);
}

}  // namespace ddm::sim
