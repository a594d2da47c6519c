// kahan.hpp — compensated (Kahan) running sums.
//
// The Gray-code inclusion-exclusion kernels maintain one running subset sum
// across up to 2^m incremental add/subtract updates. A bare double drifts by
// O(2^m · eps) — ~1e-11 at m = 12, visible against the naive kernels that
// recompute each subset sum fresh. Carrying the classic Neumaier
// compensation term keeps the running value within a few ulps of exact at
// the cost of three extra flops per update, preserving the one-update-per-
// subset complexity. See docs/performance.md.
//
// The certified escalation ladder (util/certify.hpp, docs/robustness.md)
// leans on this quantitatively: its tier-0 error analysis bounds a
// compensated running sum's error by the Neumaier bound 2u·Σ|increments|
// (u = 2^-53), which is what lets a tracked double kernel prove a rigorous
// enclosure instead of merely being "usually accurate".
#pragma once

#include <cmath>

namespace ddm::util {

/// Running sum with Neumaier compensation: `add` folds one term, `get`
/// returns the compensated value.
struct KahanSum {
  double sum = 0.0;
  double compensation = 0.0;

  constexpr KahanSum() = default;
  constexpr explicit KahanSum(double initial) : sum(initial) {}

  void add(double term) noexcept {
    const double next = sum + term;
    if (std::abs(sum) >= std::abs(term)) {
      compensation += (sum - next) + term;
    } else {
      compensation += (term - next) + sum;
    }
    sum = next;
  }

  [[nodiscard]] double get() const noexcept { return sum + compensation; }
};

}  // namespace ddm::util
