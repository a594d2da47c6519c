// uniform_sum.hpp — distributions of sums of independent uniform variables.
//
// Section 2.2 of the paper: inclusion-exclusion formulas, derived from the
// polytope volume of Proposition 2.2, for
//   Lemma 2.4     F(t) of  Σ x_i,  x_i ~ U[0, π_i]      (heterogeneous ranges)
//   Lemma 2.5     the density of that sum (answers Rota's research problem)
//   Corollary 2.6 the Irwin–Hall special case π_i = 1
//   Lemma 2.7     F(t) of  Σ x_i,  x_i ~ U[π_i, 1]      (shifted uniforms)
// These are the conditional no-overflow probabilities of a single bin given
// which players chose it. Exact Rational and fast double versions provided;
// the double versions of Lemmas 2.4, 2.5 and 2.7 use the same alternating
// summation (numerically stable for the small m of interest, m <= ~40). The
// double Irwin–Hall CDF uses the cancellation-free recurrence below instead,
// so it is accurate at every m.
#pragma once

#include <cstdint>
#include <span>

#include "util/rational.hpp"

namespace ddm::prob {

// -- exact ------------------------------------------------------------------

/// Lemma 2.4: P(Σ x_i <= t) with x_i ~ U[0, π_i], all π_i > 0.
/// An empty collection sums to 0, so the CDF is 1 for t >= 0 and 0 otherwise.
[[nodiscard]] util::Rational sum_uniform_cdf(std::span<const util::Rational> pi,
                                             const util::Rational& t);

/// Lemma 2.5: density of Σ x_i with x_i ~ U[0, π_i] at t (0 for m == 0).
[[nodiscard]] util::Rational sum_uniform_pdf(std::span<const util::Rational> pi,
                                             const util::Rational& t);

/// Corollary 2.6: P(Σ_{i=1..m} x_i <= t) with x_i ~ U[0, 1] (Irwin–Hall CDF).
[[nodiscard]] util::Rational irwin_hall_cdf(std::uint32_t m, const util::Rational& t);

/// Lemma 2.7: P(Σ x_i <= t) with x_i ~ U[π_i, 1], all 0 <= π_i < 1.
[[nodiscard]] util::Rational sum_shifted_uniform_cdf(std::span<const util::Rational> pi,
                                                     const util::Rational& t);

// -- double -----------------------------------------------------------------

[[nodiscard]] double sum_uniform_cdf(std::span<const double> pi, double t);
[[nodiscard]] double sum_uniform_pdf(std::span<const double> pi, double t);
/// Corollary 2.6 in double, by irwin_hall_row: accurate at every m.
[[nodiscard]] double irwin_hall_cdf(std::uint32_t m, double t);
[[nodiscard]] double sum_shifted_uniform_cdf(std::span<const double> pi, double t);

/// The Irwin–Hall CDFs F_0(y), ..., F_m(y) at one double y, without
/// cancellation: the cardinal B-spline recurrence (Cox 1972; de Boor 1972)
///   F_j(y) = (y·F_{j−1}(y) + (j − y)·F_{j−1}(y − 1)) / j   for 0 < y < j,
/// with F_j = 0 below that range and 1 above it, combines nonnegative
/// doubles only. Each F_j(y) it computes is within a relative γ_{5j} of the
/// exact CDF at the double y (γ_k = k·u/(1 − k·u), u = 2^-53), plus an
/// absolute 4j·2^-1075 should an intermediate underflow. Writes F_j(y) to
/// row[j] when `row` is not empty (it then holds m + 1 doubles); `scratch`
/// holds at least m + 1 doubles. Returns F_m(y). Costs O(m · min(m, y)).
double irwin_hall_row(std::uint32_t m, double y, std::span<double> row,
                      std::span<double> scratch);

}  // namespace ddm::prob
