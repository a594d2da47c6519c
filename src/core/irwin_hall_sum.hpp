// irwin_hall_sum.hpp — Theorem 5.1's symmetric sum without cancellation.
//
// With every threshold equal to β (Section 5.2), each bracket of Theorem 5.1
// is an Irwin–Hall CDF F_m (Corollary 2.6) at a scaled argument:
//   P(β) = Σ_k C(n,k) · β^(n−k) F_(n−k)(t/β) · (1−β)^k F_k((t − kβ)/(1 − β)).
// Every term is nonnegative, and prob::irwin_hall_row computes F without
// cancellation, so in double every operation combines nonnegative numbers
// and the rounding error stays relative: about c·n units of roundoff on the
// result, where the alternating inclusion–exclusion form of the same sum
// loses every digit past n ≈ 20. The zeros brackets share the argument t/β
// (one O(n²) row serves all of them); each ones bracket has its own, so a
// point costs O(n³) in the worst case. This is the body of the double
// symmetric evaluator (core/nonoblivious.hpp) and tier 0 of the certified
// symmetric ladder (core/certified.hpp), which prints the a priori bound
// below beside it. docs/robustness.md derives the bound.
#pragma once

#include <cstdint>

#include "util/resilience.hpp"

namespace ddm::core {

/// P(β) at the double inputs: 0 for t <= 0 and 1 for t >= n. Requires
/// n >= 1 and β in [0, 1] (callers validate). Polls `control` once per outer
/// term k and throws ddm::Cancelled / ddm::DeadlineExceeded when it fires.
[[nodiscard]] double symmetric_threshold_sum(std::uint32_t n, double beta, double t,
                                             const util::RunControl& control = {});

/// A priori bound on |value − P(β_exact, t_exact)|, where `value` is what
/// symmetric_threshold_sum returned at the doubles (beta, t) and the exact
/// inputs lie within `beta_gap` and `t_gap` of them. Nothing is tracked
/// while the sum runs: the bound is γ_{12n+2} relative to the result, the
/// argument roundings of the ones brackets, an underflow allowance, and the
/// input gaps through P's Lipschitz constants in β and t.
[[nodiscard]] double symmetric_threshold_sum_bound(std::uint32_t n, double beta, double t,
                                                   double value, double beta_gap = 0.0,
                                                   double t_gap = 0.0);

/// The largest symmetric_threshold_sum_bound any β in [0, 1] can get at
/// (n, t): a rational β rounded to double included. A tolerance at or above
/// it is met by the double sum at every point of the grid.
[[nodiscard]] double symmetric_threshold_sum_worst_bound(std::uint32_t n, double t,
                                                         double t_gap = 0.0);

/// Worst-case work of one symmetric_threshold_sum at n, in Irwin–Hall
/// recurrence updates (over every β and t).
[[nodiscard]] double symmetric_threshold_sum_updates(std::uint32_t n);

}  // namespace ddm::core
