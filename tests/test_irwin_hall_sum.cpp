// Tests for the cancellation-free symmetric kernel: the Irwin–Hall row of
// prob/uniform_sum.hpp and the positive Theorem 5.1 sum of
// core/irwin_hall_sum.hpp. Every value must lie within its a priori bound of
// the exact rational sum, at the n where the alternating double sums lose
// every digit, at extreme thresholds, and past the point where β^n leaves
// the double range.
#include "core/irwin_hall_sum.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/certified.hpp"
#include "core/nonoblivious.hpp"
#include "prob/uniform_sum.hpp"
#include "util/certify.hpp"
#include "util/parallel.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using util::Rational;

constexpr double kU = 0x1p-53;

double gamma_k(double k) { return k * kU / (1 - k * kU); }

/// |value − exact| <= bound, decided in rationals.
bool within(double value, const Rational& exact, double bound) {
  return (util::exact_rational(value) - exact).abs() <= util::exact_rational(bound);
}

TEST(IrwinHallSum, RowIsWithinItsRoundingCountOfTheExactCdf) {
  // F_j(y) for every j <= m from one row, against Corollary 2.6 in
  // rationals: within γ_{5j} relative (no value here underflows). Each
  // entry is also the single-m call bit for bit: a row's entries do not
  // depend on its depth.
  for (const std::uint32_t m : {1u, 2u, 5u, 13u, 40u}) {
    for (const double y : {1e-3, 0.25, 1.0, 2.5, 3.0, 7.75, 12.999, 20.5, 39.0, 45.0}) {
      std::vector<double> row(m + 1);
      std::vector<double> scratch(m + 1);
      const double top = prob::irwin_hall_row(m, y, row, scratch);
      EXPECT_EQ(top, row[m]);
      for (std::uint32_t j = 0; j <= m; ++j) {
        const std::string where = "m=" + std::to_string(j) + " y=" + std::to_string(y);
        const Rational exact = prob::irwin_hall_cdf(j, util::exact_rational(y));
        const double bound = gamma_k(5.0 * j) * exact.to_double();
        EXPECT_TRUE(within(row[j], exact, bound)) << where;
        EXPECT_EQ(row[j], prob::irwin_hall_cdf(j, y)) << where;
      }
    }
  }
  // Outside (0, m) every entry is 0 or 1; F_0 is the unit step at 0.
  std::vector<double> row(4);
  std::vector<double> scratch(4);
  EXPECT_EQ(prob::irwin_hall_row(3, -0.5, row, scratch), 0.0);
  EXPECT_EQ(row, (std::vector<double>{0, 0, 0, 0}));
  EXPECT_EQ(prob::irwin_hall_row(3, 0.0, row, scratch), 0.0);
  EXPECT_EQ(row, (std::vector<double>{1, 0, 0, 0}));
  EXPECT_EQ(prob::irwin_hall_row(3, 3.0, row, scratch), 1.0);
  EXPECT_EQ(row, (std::vector<double>{1, 1, 1, 1}));
}

TEST(IrwinHallSum, EveryValueLiesWithinItsBound) {
  // Beta on a 1/64 grid including both ends, t = n/d rounded to double, and
  // thresholds at the edges of the double range.
  std::vector<double> betas;
  for (int k = 0; k <= 64; ++k) betas.push_back(k / 64.0);
  for (const double beta : {0x1p-1074, 0x1p-600, 1e-9, 1 - 1e-9, 1 - 0x1p-53}) {
    betas.push_back(beta);
  }
  for (const std::uint32_t n : {1u, 2u, 3u, 5u, 8u, 13u, 20u, 24u, 32u}) {
    for (const int d : {1, 2, 3, 5}) {
      const double t = Rational{n, d}.to_double();
      const Rational exact_t = util::exact_rational(t);
      std::vector<char> ok(betas.size(), 0);
      util::parallel_for(0, betas.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          if (n > 8 && betas[k] < 1e-100) {
            ok[k] = 1;  // the exact sum at a tiny dyadic threshold is slow at large n
            continue;
          }
          const double value = core::symmetric_threshold_sum(n, betas[k], t);
          const double bound = core::symmetric_threshold_sum_bound(n, betas[k], t, value);
          const Rational exact =
              core::symmetric_threshold_winning_probability(n, util::exact_rational(betas[k]),
                                                            exact_t);
          ok[k] = within(value, exact, bound) &&
                  bound <= core::symmetric_threshold_sum_worst_bound(n, t);
        }
      });
      for (std::size_t k = 0; k < betas.size(); ++k) {
        EXPECT_TRUE(ok[k]) << "n=" << n << " t=" << n << "/" << d << " beta=" << betas[k];
      }
    }
  }
}

TEST(IrwinHallSum, StaysAccurateWhereTheAlternatingSumCancelled) {
  // At n = 24 and 48 (t = n/5, beta = 0.7071) the alternating double sum
  // returned −0.026 and −2.6e13. The positive sum is within its bound, and
  // even the worst-case bound stays far below 1e-9.
  for (const std::uint32_t n : {24u, 48u}) {
    const double t = Rational{n, 5}.to_double();
    const double value = core::symmetric_threshold_winning_probability(n, 0.7071, t);
    const Rational exact = core::symmetric_threshold_winning_probability(
        n, util::exact_rational(0.7071), util::exact_rational(t));
    EXPECT_TRUE(within(value, exact,
                       core::symmetric_threshold_sum_bound(n, 0.7071, t, value)))
        << "n=" << n << " value " << value << " exact " << exact.to_double();
    EXPECT_LT(core::symmetric_threshold_sum_worst_bound(n, t), 1e-12) << "n=" << n;
  }
  EXPECT_LT(core::symmetric_threshold_sum_worst_bound(1000, 1000.0 / 3, 1000.0 / 3 * kU), 1e-9);
}

TEST(IrwinHallSum, WeightsCarryTheirExponentPastTheDoubleRange) {
  // At t >= n every bracket is 1, so P = Σ_k C(n,k) β^(n−k) (1−β)^k = 1
  // even where β^n = 0.3^1000 ≈ 1e-523 is far below the smallest double.
  for (const double beta : {0.3, 0.5, 0.999}) {
    const double value = core::symmetric_threshold_sum(1000, beta, 1000.0);
    EXPECT_NEAR(value, 1.0, core::symmetric_threshold_sum_bound(1000, beta, 1000.0, value))
        << "beta=" << beta;
  }
}

TEST(IrwinHallSum, RoundedInputsStayWithinTheCertifiedBound) {
  // Non-dyadic beta and t reach tier 0 rounded once; the certificate charges
  // both gaps and still contains the exact value of the real instance.
  for (const std::uint32_t n : {7u, 24u, 64u}) {
    const Rational t{n, 3};
    const core::SymmetricCertifier certifier(n, t);
    for (const Rational& beta : {Rational{37, 100}, Rational{2, 3}, Rational{1, 7}}) {
      const CertifiedValue certified = certifier.evaluate(beta);
      EXPECT_EQ(certified.tier, EvalTier::kCompensatedDouble) << "n=" << n << " beta=" << beta;
      EXPECT_TRUE(certified.enclosure().contains(
          core::symmetric_threshold_winning_probability(n, beta, t)))
          << "n=" << n << " beta=" << beta;
      EXPECT_LE(certified.error_bound(), certifier.tier0_worst_bound());
    }
  }
}

TEST(IrwinHallSum, PollsItsControlOncePerTerm) {
  util::RunControl control;
  control.deadline = util::Deadline::after(std::chrono::nanoseconds(0));
  try {
    (void)core::symmetric_threshold_sum(1000, 0.5, 1000.0 / 3, control);
    FAIL() << "expired deadline did not stop the sum";
  } catch (const DeadlineExceeded& stop) {
    EXPECT_EQ(stop.completed(), 0u);
    EXPECT_EQ(stop.total(), 1001u);
  }
  util::RunControl cancelled;
  cancelled.token = util::CancelToken::create();
  cancelled.token.cancel();
  EXPECT_THROW((void)core::symmetric_threshold_sum(8, 0.5, 8.0 / 3, cancelled), Cancelled);
}

}  // namespace
}  // namespace ddm
