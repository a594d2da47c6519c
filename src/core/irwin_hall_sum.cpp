#include "core/irwin_hall_sum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "prob/uniform_sum.hpp"
#include "util/status.hpp"

namespace ddm::core {

namespace {

// Unit roundoff of IEEE double under round-to-nearest.
constexpr double kU = 0x1p-53;

constexpr const char* kLabel = "symmetric_threshold_winning_probability";

// m · 2^e with m moved into [1/2, 1) exactly; m must be positive and normal.
void renormalize(double& m, std::int64_t& e) {
  const auto bits = std::bit_cast<std::uint64_t>(m);
  e += static_cast<std::int64_t>(bits >> 52) - 1022;
  m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) | (std::uint64_t{1022} << 52));
}

// x · 2^e: exact unless the result underflows, which rounds once.
double scale(double x, std::int64_t e) {
  if (e >= -1022 && e <= 1023) {
    return x * std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
  }
  return std::ldexp(x, static_cast<int>(std::clamp<std::int64_t>(e, -4000, 4000)));
}

}  // namespace

double symmetric_threshold_sum(std::uint32_t n, double beta, double t,
                               const util::RunControl& control) {
  if (!(t > 0.0)) return 0.0;
  // Neither bin can hold more than the n players.
  if (t >= static_cast<double>(n)) return 1.0;
  DDM_SPAN("kernel.sym_positive", {{"n", static_cast<std::int64_t>(n)}});
  // The zeros row F_0..F_n(t/β) and the recurrence's scratch: n + 2 doubles
  // each, on the stack for the n that grids sweep.
  std::array<double, 256> local;
  std::vector<double> heap;
  const std::size_t width = std::size_t{n} + 2;
  double* base = local.data();
  if (2 * width > local.size()) {
    heap.resize(2 * width);
    base = heap.data();
  }
  const std::span<double> zeros{base, width};
  const std::span<double> scratch{base + width, width};
  if (control.engaged()) throw_if_stopped(control, kLabel, 0, n + 1);
  // Every player on one side: P = F_n(t).
  if (beta == 0.0 || beta == 1.0) return prob::irwin_hall_row(n, t, {}, scratch);

  // Roundings on the chain of term k, counted beside each step; they total
  // 8n + 4k + 1 <= 12n + 1, so each term — and, all terms being
  // nonnegative, the sum — is within a relative γ_{12n+2} of the exact sum
  // at the computed ones arguments (symmetric_threshold_sum_bound).
  //
  // zeros[m] = F_m(t/β): 5m in the recurrence; the quotient t/β is rounded
  // once, a relative change 1 + δ of the argument, and F_m(λy) lies between
  // F_m(y) and λ^m·F_m(y) for λ >= 1, so that costs m more.
  prob::irwin_hall_row(n, t / beta, zeros, scratch);
  // w_k = C(n,k)·β^(n−k)·(1−β)^k = weight · 2^exponent, with the binary
  // exponent carried beside the weight because β^(n−k) underflows a double
  // near n = 600 at β = 0.3. w_0 = β^n takes n − 1 products; each step
  // multiplies by (1 − β)·((n − k + 1)/k)/β, on the mantissas: the rounded
  // 1 − β (met k times), the quotient, two products and a division — 5k.
  // Rounding each step afresh keeps the errors from adding up in step, as
  // one rounded (1 − β)/β reused k times would.
  const double c = 1.0 - beta;
  int beta_exp = 0;
  int c_exp = 0;
  const double beta_m = std::frexp(beta, &beta_exp);
  const double c_m = std::frexp(c, &c_exp);
  double weight = beta_m;
  std::int64_t exponent = std::int64_t{n} * beta_exp;
  for (std::uint32_t j = 1; j < n; ++j) {
    weight *= beta_m;
    renormalize(weight, exponent);
  }
  double total = 0.0;
  for (std::uint32_t k = 0; k <= n; ++k) {
    if (k > 0 && control.engaged()) throw_if_stopped(control, kLabel, k, n + 1);
    double ones = 1.0;
    if (k > 0) {
      weight = weight * c_m * (static_cast<double>(n - k + 1) / static_cast<double>(k)) / beta_m;
      exponent += c_exp - beta_exp;
      renormalize(weight, exponent);
      // F_k((t − kβ)/(1 − β)): 5k in the recurrence. Its argument's own
      // error is charged absolutely (symmetric_threshold_sum_bound). The
      // rounded t − kβ never rises with k, so once it is <= 0 every later
      // bracket is 0 as well.
      const double excess = t - static_cast<double>(k) * beta;
      if (!(excess > 0.0)) break;
      ones = prob::irwin_hall_row(k, excess / c, {}, scratch);
    }
    // Two products, then at most n additions; scaling by 2^exponent is exact
    // unless the term underflows.
    total += scale(weight * zeros[n - k] * ones, exponent);
  }
  return total;
}

double symmetric_threshold_sum_bound(std::uint32_t n, double beta, double t, double value,
                                     double beta_gap, double t_gap) {
  const auto nn = static_cast<double>(n);
  const double chain = 12.0 * nn + 2.0;
  const double gamma = chain * kU / (1.0 - chain * kU);
  // The ones arguments: with a = fl(kβ), b = fl(t − a) and c = fl(1 − β),
  // fl(b/c) lies within Δ_k = 4u·(|b| + a)/c of (t − kβ)/(1 − β), and F_k
  // has a density of at most 1, so bracket k moves by at most w_k·Δ_k
  // (also where b <= 0 cut the sum short). Summed over k:
  //   Σ_{k>=1} w_k/(1 − β) = (1 − β^n)/(1 − β) <= min(n, 1/(1 − β)) and
  //   Σ_k k·w_k/(1 − β) = n, so Σ_k w_k·Δ_k <= 4u·(t·min(n, 1/(1 − β)) + 2βn).
  const double c = 1.0 - beta;
  const double spread = c > 0.0 ? std::min(nn, 1.0 / c) : nn;
  const double arguments = 4.0 * kU * (t * spread + 2.0 * beta * nn);
  // Underflow: each rounding that leaves the normal range errs by at most
  // 2^-1075 absolutely. The recurrence is a convex combination, so it
  // carries at most 4j of them into F_j; the products, the scaling and the
  // argument quotients add a few per term: 16(n + 1) covers them all.
  const double underflow = 16.0 * (nn + 1.0) * 0x1p-1074;
  // |value − P| <= γ·P + B and P <= min(1, (value + B)/(1 − γ)).
  const double absolute = (1.0 + gamma) * arguments + underflow;
  const double relative = gamma * std::min(1.0, (value + absolute) / (1.0 - gamma));
  // The inputs: moving β by δ re-routes a player only when its value lies
  // between the two thresholds, so P is n-Lipschitz in β. Moving t moves P
  // by at most the densities of the two loads, min(n, 1/β) + min(n, 1/(1−β))
  // <= n + 2 per unit of t.
  const double gaps = nn * beta_gap + (nn + 2.0) * t_gap;
  // The factors 1 + O(u) dropped above (c for 1 − β, the rounding of this
  // formula's own dozen operations) are far below 2^-40.
  return (relative + absolute + gaps) * (1.0 + 0x1p-40);
}

double symmetric_threshold_sum_worst_bound(std::uint32_t n, double t, double t_gap) {
  // β = 1 maximizes both argument terms and value = 1 the relative one; a
  // rational β rounds to a double within 2u of itself.
  return symmetric_threshold_sum_bound(n, 1.0, t, 1.0, 2.0 * kU, t_gap);
}

double symmetric_threshold_sum_updates(std::uint32_t n) {
  // A row of depth m at any y updates at most Σ_j min(j, m + 1 − j)
  // <= (m + 1)²/4 entries: one row of depth n for the zeros brackets, one of
  // depth k for each ones bracket.
  const auto nn = static_cast<double>(n);
  double updates = (nn + 1.0) * (nn + 1.0) / 4.0;
  for (std::uint32_t k = 1; k <= n; ++k) {
    updates += (static_cast<double>(k) + 1.0) * (static_cast<double>(k) + 1.0) / 4.0;
  }
  return updates;
}

}  // namespace ddm::core
