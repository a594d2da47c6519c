#include "core/nonoblivious.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
#include "core/irwin_hall_sum.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/kahan.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

// Kernel metrics (docs/observability.md). subsets_visited counts Gray-code
// subset evaluations (2·3^n per general-kernel call); kahan_compensation
// records the absolute compensation a bracket accumulated — the live
// cancellation-severity signal behind the certified ladder's tier-0 bound.
struct KernelMetrics {
  obs::Counter gray_calls = obs::counter("kernel.gray_calls");
  obs::Counter symmetric_calls = obs::counter("kernel.symmetric_calls");
  obs::Counter subsets_visited = obs::counter("kernel.subsets_visited");
  obs::Histogram kahan_compensation = obs::histogram("kernel.kahan_compensation");

  static const KernelMetrics& get() {
    static const KernelMetrics metrics;
    return metrics;
  }
};

// 2·3^n: total Gray-code subset evaluations of one general-kernel call
// (each outer assignment with m zeros and k ones walks 2^m + 2^k subsets;
// Σ_b 2^m + 2^k = 2·3^n). n <= 20, so this fits comfortably in 64 bits.
std::uint64_t general_kernel_subsets(std::size_t n) noexcept {
  std::uint64_t p = 1;
  for (std::size_t i = 0; i < n; ++i) p *= 3;
  return 2 * p;
}

void check_thresholds(std::span<const Rational> a, std::size_t max_n) {
  if (a.empty()) throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
  if (a.size() > max_n) {
    throw std::invalid_argument("threshold_winning_probability: n too large for exact 3^n sum");
  }
  for (const Rational& x : a) {
    if (x < Rational{0} || x > Rational{1}) {
      throw std::invalid_argument("threshold_winning_probability: thresholds must lie in [0, 1]");
    }
  }
}

// Theorem 5.1 over one common denominator: with a_i = A_i/D and t = T/D,
// the zeros bracket of m players is Z/(D^m·m!) and the ones bracket of k
// players is W/(D^k·k!), where
//   Z = Σ_{I ⊆ zeros, T − Σ_I A_l > 0} (−1)^|I| (T − Σ_{l∈I} A_l)^m,
//   W = k!·Π (D − A_l) − Σ_{I ⊆ ones, base > 0} (−1)^|I| (kD − T − Σ_{l∈I} (D − A_l))^k.
// Since m!·k! = n!/C(n,k), P = Σ_b C(n,k)·Z·W / (D^n·n!): integer terms and
// one normalisation per call.
//
// Both sums visit the subsets I in reflected Gray-code order
// (combinat::gray_code): consecutive subsets differ in one element, so the
// per-subset base is maintained with a single add or subtract instead of an
// O(m) subset-sum loop, and the inclusion-exclusion sign (−1)^|I| simply
// alternates with the step index. The derivation — including why the
// feasibility guards commute with the reordering — is in docs/performance.md.
// `steps[l]` is what entering player l into I subtracts from the base.
util::BigInt gray_power_sum(const util::BigInt& first, std::span<const util::BigInt> steps,
                            std::span<const std::size_t> players, std::uint64_t exponent) {
  util::BigInt base = first;
  util::BigInt sum;
  if (base.signum() > 0) sum = util::BigInt::pow(base, exponent);
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << players.size();
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      base -= steps[players[j]];
    } else {
      base += steps[players[j]];
    }
    if (base.signum() <= 0) continue;
    const util::BigInt term = util::BigInt::pow(base, exponent);
    if (combinat::gray_parity_odd(i)) {
      sum -= term;
    } else {
      sum += term;
    }
  }
  return sum;
}

// Σ_{l=0..m, base_l > 0} (−1)^l C(m,l) base_l^m with base_l = first − l·step.
// step >= 0, so the bases never rise and the sum stops at the first one
// that is not positive. C(m, l) comes from its row recurrence, so no table
// of binomials is held.
util::BigInt alternating_row_sum(std::uint32_t m, util::BigInt base, const util::BigInt& step) {
  util::BigInt sum;
  util::BigInt binomial{1};
  for (std::uint32_t l = 0; l <= m && base.signum() > 0; ++l) {
    if (l > 0) {
      binomial *= util::BigInt{static_cast<std::int64_t>(m - l + 1)};
      binomial /= util::BigInt{static_cast<std::int64_t>(l)};
    }
    const util::BigInt term = binomial * util::BigInt::pow(base, m);
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
    base -= step;
  }
  return sum;
}

}  // namespace

Rational threshold_winning_probability(std::span<const Rational> a, const Rational& t) {
  check_thresholds(a, 16);
  if (t.signum() <= 0) return Rational{0};
  const std::size_t n = a.size();
  DDM_SPAN("kernel.gray_exact", {{"n", static_cast<std::int64_t>(n)}});
  std::vector<Rational> inputs(a.begin(), a.end());
  inputs.push_back(t);
  const util::CommonDenominator common = util::common_denominator(inputs);
  const util::BigInt& d = common.denominator;
  const util::BigInt& scaled_t = common.numerators[n];
  const std::span<const util::BigInt> numerators{common.numerators.data(), n};
  std::vector<util::BigInt> complements(n);  // D − A_l
  for (std::size_t l = 0; l < n; ++l) complements[l] = d - numerators[l];
  std::vector<util::BigInt> binomials(n + 1);  // C(n, k)
  std::vector<util::BigInt> factorials(n + 1);  // k!
  for (std::uint32_t k = 0; k <= n; ++k) {
    binomials[k] = combinat::binomial(static_cast<std::uint32_t>(n), k);
    factorials[k] = util::BigInt::factorial(k);
  }

  util::BigInt total;
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> ones;
  zeros.reserve(n);
  ones.reserve(n);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    zeros.clear();
    ones.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        ones.push_back(i);
      } else {
        zeros.push_back(i);
      }
    }
    // An empty bracket comes out as 1: T > 0 keeps the zeros term T^0, and
    // the ones base 0·D − T is negative.
    const std::size_t k = ones.size();
    const util::BigInt zeros_sum = gray_power_sum(scaled_t, numerators, zeros, n - k);
    if (zeros_sum.is_zero()) continue;
    util::BigInt product = factorials[k];
    for (const std::size_t l : ones) product *= complements[l];
    const util::BigInt first = util::BigInt{static_cast<std::int64_t>(k)} * d - scaled_t;
    total += binomials[k] * zeros_sum * (product - gray_power_sum(first, complements, ones, k));
  }
  return Rational{std::move(total), util::BigInt::pow(d, n) * factorials[n]};
}

double threshold_winning_probability(std::span<const double> a, double t) {
  if (a.empty()) throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
  if (a.size() > 20) {
    throw std::invalid_argument("threshold_winning_probability: n too large for 3^n sum");
  }
  if (t <= 0.0) return 0.0;
  const std::size_t n = a.size();
  const KernelMetrics& metrics = KernelMetrics::get();
  DDM_SPAN("kernel.gray_ie", {{"n", static_cast<std::int64_t>(n)}});
  metrics.gray_calls.add();
  if (obs::metrics_enabled()) metrics.subsets_visited.add(general_kernel_subsets(n));

  // Gray-code brackets, mirroring the exact versions above: one running-sum
  // update per subset and binary exponentiation instead of std::pow. The
  // running base and the term accumulator carry Kahan compensation so 2^m
  // incremental updates stay within a few ulps of fresh recomputation.
  const auto zeros_bracket_d = [&](std::span<const std::size_t> zeros) {
    const std::size_t m = zeros.size();
    if (m == 0) return 1.0;
    const auto mm = static_cast<std::uint32_t>(m);
    util::KahanSum remainder{t};
    std::uint64_t mask = 0;
    util::KahanSum sum{combinat::pow_uint(t, mm)};  // I = ∅ (t > 0)
    const std::uint64_t limit = std::uint64_t{1} << m;
    for (std::uint64_t i = 1; i < limit; ++i) {
      const std::uint32_t j = combinat::gray_flip_bit(i);
      const std::uint64_t bit = std::uint64_t{1} << j;
      mask ^= bit;
      remainder.add((mask & bit) ? -a[zeros[j]] : a[zeros[j]]);
      const double rem = remainder.get();
      if (rem <= 0.0) continue;
      const double term = combinat::pow_uint(rem, mm);
      sum.add(combinat::gray_parity_odd(i) ? -term : term);
    }
    if (obs::metrics_enabled()) metrics.kahan_compensation.record(std::abs(sum.compensation));
    return sum.get() * combinat::inverse_factorial_double(mm);
  };
  const auto ones_bracket_d = [&](std::span<const std::size_t> ones) {
    const std::size_t k = ones.size();
    if (k == 0) return 1.0;
    const auto kk = static_cast<std::uint32_t>(k);
    double product = 1.0;
    for (const std::size_t idx : ones) product *= 1.0 - a[idx];
    // base = k − t + Σ_{l∈I} (a_l − 1): adding player l to I covers both the
    // +a_l and the −|I| bookkeeping in one update.
    util::KahanSum base{static_cast<double>(k) - t};
    std::uint64_t mask = 0;
    util::KahanSum sum{base.get() > 0.0 ? combinat::pow_uint(base.get(), kk) : 0.0};
    const std::uint64_t limit = std::uint64_t{1} << k;
    for (std::uint64_t i = 1; i < limit; ++i) {
      const std::uint32_t j = combinat::gray_flip_bit(i);
      const std::uint64_t bit = std::uint64_t{1} << j;
      mask ^= bit;
      base.add((mask & bit) ? a[ones[j]] - 1.0 : 1.0 - a[ones[j]]);
      const double b = base.get();
      if (b <= 0.0) continue;
      const double term = combinat::pow_uint(b, kk);
      sum.add(combinat::gray_parity_odd(i) ? -term : term);
    }
    if (obs::metrics_enabled()) metrics.kahan_compensation.record(std::abs(sum.compensation));
    return product - sum.get() * combinat::inverse_factorial_double(kk);
  };

  double total = 0.0;
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> ones;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    zeros.clear();
    ones.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        ones.push_back(i);
      } else {
        zeros.push_back(i);
      }
    }
    total += zeros_bracket_d(zeros) * ones_bracket_d(ones);
  }
  return require_finite(total, "threshold_winning_probability: double result");
}

std::vector<double> threshold_winning_probability_batch(
    std::span<const std::vector<double>> points, double t, const util::RunControl& control) {
  DDM_SPAN("kernel.batch", {{"points", static_cast<std::int64_t>(points.size())}});
  // Validate every point up front, in index order, with the single-point
  // evaluator's exact messages — the batch throws like a sequential loop
  // would, independent of how chunks land on threads.
  for (const std::vector<double>& point : points) {
    if (point.empty()) {
      throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
    }
    if (point.size() > 20) {
      throw std::invalid_argument("threshold_winning_probability: n too large for 3^n sum");
    }
  }
  std::vector<double> values(points.size(), 0.0);
  if (t <= 0.0) return values;  // mirrors the single-point evaluator
  // Chunks of kThresholdBatchBlock points, each point one serial kernel call,
  // so neither blocking nor parallelism ever changes a result. The validate
  // hook rejects any chunk holding a non-finite value — whether produced by
  // the kernel or injected by a nan-poison fault directive — so the engine
  // recomputes it instead of returning silently-corrupt rows.
  util::ParallelOptions options;
  options.grain = kThresholdBatchBlock;
  options.label = "threshold_batch";
  options.control = control;
  options.validate = [&values](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      if (!std::isfinite(values[p])) return false;
    }
    return true;
  };
  util::parallel_for(
      0, points.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          values[p] = threshold_winning_probability(points[p], t);
        }
        // Chunk ordinal for fault directives: lo / kThresholdBatchBlock.
        if (util::fault::active() && util::fault::consume_nan(lo / kThresholdBatchBlock)) {
          values[lo] = std::numeric_limits<double>::quiet_NaN();
        }
      },
      options);
  return values;
}

Rational symmetric_threshold_winning_probability(std::uint32_t n, const Rational& beta,
                                                 const Rational& t,
                                                 const util::RunControl& control) {
  if (n == 0) throw std::invalid_argument("symmetric_threshold_winning_probability: n == 0");
  if (beta < Rational{0} || beta > Rational{1}) {
    throw std::invalid_argument("symmetric_threshold_winning_probability: beta outside [0, 1]");
  }
  if (t.signum() <= 0) return Rational{0};
  DDM_SPAN("kernel.sym_exact", {{"n", static_cast<std::int64_t>(n)}});
  // With β = B/D and t = T/D over one common denominator, the zeros bracket
  // of m players is Z_m/(D^m·m!) and the ones bracket of k players is
  // W_k/(D^k·k!), where
  //   Z_m = Σ_{l, T − lB > 0} (−1)^l C(m,l) (T − lB)^m,
  //   W_k = k!·(D − B)^k − Σ_{l, base > 0} (−1)^l C(k,l) ((k − l)D − T + lB)^k,
  // so P = Σ_k C(n,k)²·Z_(n−k)·W_k / (D^n·n!).
  const Rational inputs[] = {beta, t};
  const util::CommonDenominator common = util::common_denominator(inputs);
  const util::BigInt& d = common.denominator;
  const util::BigInt& scaled_beta = common.numerators[0];
  const util::BigInt& scaled_t = common.numerators[1];
  const util::BigInt complement = d - scaled_beta;  // D − B
  util::BigInt total;
  util::BigInt binomial{1};   // C(n, k)
  util::BigInt factorial{1};  // k!
  for (std::uint32_t k = 0; k <= n; ++k) {
    throw_if_stopped(control, "symmetric_threshold_winning_probability", k, n + 1);
    if (k > 0) {
      binomial *= util::BigInt{static_cast<std::int64_t>(n - k + 1)};
      binomial /= util::BigInt{static_cast<std::int64_t>(k)};
      factorial *= util::BigInt{static_cast<std::int64_t>(k)};
    }
    const util::BigInt zeros = alternating_row_sum(n - k, scaled_t, scaled_beta);
    if (zeros.is_zero()) continue;
    const util::BigInt ones =
        factorial * util::BigInt::pow(complement, k) -
        alternating_row_sum(k, util::BigInt{static_cast<std::int64_t>(k)} * d - scaled_t,
                            complement);
    total += binomial * binomial * zeros * ones;
  }
  return Rational{std::move(total), util::BigInt::pow(d, n) * factorial};  // factorial = n!
}

double symmetric_threshold_winning_probability(std::uint32_t n, double beta, double t) {
  if (n == 0) throw std::invalid_argument("symmetric_threshold_winning_probability: n == 0");
  // Written so that a NaN fails too: the sum would read it as 0.
  if (!(beta >= 0.0 && beta <= 1.0)) {
    throw std::invalid_argument("symmetric_threshold_winning_probability: beta outside [0, 1]");
  }
  if (std::isnan(t)) {
    throw std::invalid_argument("symmetric_threshold_winning_probability: t is NaN");
  }
  KernelMetrics::get().symmetric_calls.add();
  return require_finite(symmetric_threshold_sum(n, beta, t),
                        "symmetric_threshold_winning_probability: double result");
}

}  // namespace ddm::core
