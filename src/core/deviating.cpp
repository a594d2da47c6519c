#include "core/deviating.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "combinat/binomial.hpp"
#include "core/protocol.hpp"
#include "prob/uniform_sum.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

void check_instance(std::uint32_t n, std::uint32_t deviators, const Rational& beta,
                    const char* what) {
  if (n == 0) throw Error(std::string(what) + ": need >= 1 player");
  if (deviators >= n) {
    throw Error(std::string(what) + ": deviators (" + std::to_string(deviators) +
                ") must be < n (" + std::to_string(n) + ")");
  }
  if (beta < Rational{0} || beta > Rational{1}) {
    throw Error(std::string(what) + ": beta outside [0, 1]");
  }
}

}  // namespace

Rational deviating_threshold_winning_probability(std::uint32_t n, std::uint32_t deviators,
                                                 std::uint32_t bin0_deviators,
                                                 const Rational& beta, const Rational& t) {
  const char* what = "deviating_threshold_winning_probability";
  check_instance(n, deviators, beta, what);
  if (bin0_deviators > deviators) {
    throw Error(std::string(what) + ": bin0 deviators (" + std::to_string(bin0_deviators) +
                ") must be <= deviators (" + std::to_string(deviators) + ")");
  }
  if (n > kDeviatingMaxExactN) {
    throw Error(std::string(what) + ": n too large for exact evaluation (n = " +
                std::to_string(n) + " > " + std::to_string(kDeviatingMaxExactN) + ")");
  }
  if (t.signum() <= 0) return Rational{0};

  const std::uint32_t followers = n - deviators;
  const std::uint32_t j = bin0_deviators;
  const Rational one_minus_beta = Rational{1} - beta;

  // Condition on m, the number of followers in bin 0 (each independently
  // with probability beta). Given m, bin 0 carries m inputs U[0, β] plus j
  // deviator inputs U[0, 1]; bin 1 carries the remaining followers' inputs
  // U[β, 1] (recentered by their β shift for Lemma 2.4) plus k − j deviator
  // inputs U[0, 1].
  Rational total{0};
  std::vector<Rational> widths0;
  std::vector<Rational> widths1;
  for (std::uint32_t m = 0; m <= followers; ++m) {
    const Rational weight = Rational{combinat::binomial(followers, m), util::BigInt{1}} *
                            beta.pow(m) * one_minus_beta.pow(followers - m);
    if (weight.is_zero()) continue;
    widths0.assign(m, beta);
    widths0.insert(widths0.end(), j, Rational{1});
    const Rational f0 = prob::sum_uniform_cdf(widths0, t);
    if (f0.is_zero()) continue;
    const std::uint32_t bin1_followers = followers - m;
    widths1.assign(bin1_followers, one_minus_beta);
    widths1.insert(widths1.end(), deviators - j, Rational{1});
    const Rational shift = beta * Rational{bin1_followers};
    total += weight * f0 * prob::sum_uniform_cdf(widths1, t - shift);
  }
  return total;
}

Rational worst_case_deviating_winning_probability(std::uint32_t n, std::uint32_t deviators,
                                                  const Rational& beta, const Rational& t) {
  check_instance(n, deviators, beta, "worst_case_deviating_winning_probability");
  Rational worst;
  bool first = true;
  for (std::uint32_t j = 0; j <= deviators; ++j) {
    const Rational value = deviating_threshold_winning_probability(n, deviators, j, beta, t);
    if (first || value < worst) {
      worst = value;
      first = false;
    }
  }
  return worst;
}

DeviatingSimResult estimate_worst_case_deviating(std::uint32_t n, std::uint32_t deviators,
                                                 double beta, double t, std::uint64_t trials,
                                                 prob::Rng& rng, const util::RunControl& control) {
  const char* what = "estimate_worst_case_deviating";
  check_instance(n, deviators, util::Rational::from_double(beta), what);
  if (trials == 0) throw Error(std::string(what) + ": zero trials");

  // Draw order: deviators, then followers. Strategy j pins the first j
  // deviators to bin 0 (threshold +∞) and the rest to bin 1 (−∞).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> ranges(n, 1.0);
  std::vector<double> thresholds(n, beta);
  DeviatingSimResult result;
  result.trials = trials;
  for (std::uint32_t j = 0; j <= deviators; ++j) {
    std::fill_n(thresholds.begin(), j, kInf);
    std::fill(thresholds.begin() + j, thresholds.begin() + deviators, -kInf);
    const std::uint64_t wins = count_threshold_wins(ranges, thresholds, t, trials, rng, control);
    const double estimate = static_cast<double>(wins) / static_cast<double>(trials);
    if (j == 0 || estimate < result.estimate) {
      result.estimate = estimate;
      result.worst_bin0 = j;
    }
  }
  return result;
}

}  // namespace ddm::core
