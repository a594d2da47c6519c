// Kernel-equivalence property tests: the Gray-code inclusion-exclusion
// kernels (src/geom/volume.cpp, src/core/nonoblivious.cpp) must agree with
// the naive O(m·2^m) reference implementations kept in
// src/core/reference_kernels.hpp — exactly in Rational arithmetic, to 1e-12
// in double — on randomized inputs. Also pins the Gray-walk bookkeeping
// itself and the batch evaluator's bitwise agreement with single-point calls.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
#include "core/certified.hpp"
#include "core/nonoblivious.hpp"
#include "core/reference_kernels.hpp"
#include "geom/volume.hpp"
#include "prob/rng.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using util::Rational;

// Random rational in (0, 1] with denominator <= 64: small enough to keep the
// exact 2^m sums fast, irregular enough to exercise every guard branch.
Rational random_unit_rational(prob::Rng& rng) {
  const auto den = static_cast<std::int64_t>(rng.uniform_below(63) + 2);
  const auto num = static_cast<std::int64_t>(rng.uniform_below(static_cast<std::uint64_t>(den)) + 1);
  return Rational{num, den};
}

TEST(GrayCode, WalkMatchesClosedForm) {
  // The incremental walk the kernels use — flip bit gray_flip_bit(i) of the
  // running mask at step i — must reproduce gray_code(i), and the sign of
  // the visited subset must alternate with i.
  std::uint64_t mask = 0;
  for (std::uint64_t i = 1; i < (std::uint64_t{1} << 12); ++i) {
    mask ^= std::uint64_t{1} << combinat::gray_flip_bit(i);
    EXPECT_EQ(mask, combinat::gray_code(i));
    EXPECT_EQ(combinat::popcount(mask) % 2 == 1, combinat::gray_parity_odd(i));
  }
}

TEST(KernelEquivalence, SimplexBoxVolumeExactMatchesReference) {
  prob::Rng rng{2024};
  for (std::size_t m = 1; m <= 9; ++m) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<Rational> sigma;
      std::vector<Rational> pi;
      for (std::size_t l = 0; l < m; ++l) {
        sigma.push_back(random_unit_rational(rng) + Rational(1, 2));
        pi.push_back(random_unit_rational(rng));
      }
      EXPECT_EQ(geom::simplex_box_volume(sigma, pi), reference::simplex_box_volume(sigma, pi))
          << "m=" << m << " rep=" << rep;
    }
  }
}

TEST(KernelEquivalence, SimplexBoxVolumeDoubleMatchesReference) {
  prob::Rng rng{77};
  for (std::size_t m = 1; m <= 12; ++m) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> sigma(m);
      std::vector<double> pi(m);
      for (std::size_t l = 0; l < m; ++l) {
        sigma[l] = 0.5 + rng.uniform();
        pi[l] = 0.05 + 0.95 * rng.uniform();
      }
      const double fast = geom::simplex_box_volume_double(sigma, pi);
      const double naive = reference::simplex_box_volume_double(sigma, pi);
      EXPECT_NEAR(fast, naive, 1e-12) << "m=" << m << " rep=" << rep;
    }
  }
}

TEST(KernelEquivalence, GeneralThresholdExactMatchesReference) {
  prob::Rng rng{5150};
  for (std::size_t n = 1; n <= 5; ++n) {
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<Rational> a;
      for (std::size_t i = 0; i < n; ++i) a.push_back(random_unit_rational(rng));
      const Rational t{static_cast<std::int64_t>(1 + rng.uniform_below(2 * n)),
                       static_cast<std::int64_t>(3)};
      EXPECT_EQ(core::threshold_winning_probability(a, t),
                reference::threshold_winning_probability(a, t))
          << "n=" << n << " rep=" << rep;
    }
  }
}

// A prime near 2^20: the common denominators of these inputs run to
// hundreds of bits, which the integer exact sums must carry exactly.
Rational random_prime_rational(prob::Rng& rng) {
  constexpr std::int64_t kPrimes[] = {1048573, 1048571, 1048559, 1048549, 1048517, 1048507};
  const std::int64_t den = kPrimes[rng.uniform_below(6)];
  return Rational{static_cast<std::int64_t>(rng.uniform_below(den - 1) + 1), den};
}

TEST(KernelEquivalence, ExactSumsMatchReferenceOnPrimeDenominators) {
  prob::Rng rng{1048573};
  for (std::size_t n = 1; n <= 6; ++n) {
    std::vector<Rational> a;
    for (std::size_t i = 0; i < n; ++i) a.push_back(random_prime_rational(rng));
    const Rational t = random_prime_rational(rng) * Rational{static_cast<std::int64_t>(n)};
    EXPECT_EQ(core::threshold_winning_probability(a, t),
              reference::threshold_winning_probability(a, t))
        << "n=" << n;
  }
  for (std::size_t m = 1; m <= 10; ++m) {
    std::vector<Rational> sigma;
    std::vector<Rational> pi;
    for (std::size_t l = 0; l < m; ++l) {
      sigma.push_back(random_prime_rational(rng) + Rational(1, 2));
      pi.push_back(random_prime_rational(rng));
    }
    EXPECT_EQ(geom::simplex_box_volume(sigma, pi), reference::simplex_box_volume(sigma, pi))
        << "m=" << m;
  }
}

// The symmetric Theorem 5.1 sum as it was written over Rational, bracket by
// bracket: the oracle the integer sum must equal exactly.
Rational rational_zero_bracket(std::uint32_t m, const Rational& beta, const Rational& t) {
  Rational sum{0};
  for (std::uint32_t l = 0; l <= m; ++l) {
    const Rational base = t - Rational{static_cast<std::int64_t>(l)} * beta;
    if (base.signum() <= 0) continue;
    const Rational term = Rational{combinat::binomial(m, l), util::BigInt{1}} *
                          base.pow(static_cast<std::int64_t>(m));
    sum += l % 2 == 0 ? term : -term;
  }
  return sum * combinat::inverse_factorial(m);
}

Rational rational_one_bracket(std::uint32_t k, const Rational& beta, const Rational& t) {
  Rational sum{0};
  for (std::uint32_t l = 0; l <= k; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    const Rational base = Rational{static_cast<std::int64_t>(k)} - t - ll + ll * beta;
    if (base.signum() <= 0) continue;
    const Rational term = Rational{combinat::binomial(k, l), util::BigInt{1}} *
                          base.pow(static_cast<std::int64_t>(k));
    sum += l % 2 == 0 ? term : -term;
  }
  return (Rational{1} - beta).pow(static_cast<std::int64_t>(k)) -
         sum * combinat::inverse_factorial(k);
}

Rational rational_symmetric_sum(std::uint32_t n, const Rational& beta, const Rational& t) {
  Rational total{0};
  for (std::uint32_t k = 0; k <= n; ++k) {
    total += Rational{combinat::binomial(n, k), util::BigInt{1}} *
             rational_zero_bracket(n - k, beta, t) * rational_one_bracket(k, beta, t);
  }
  return total;
}

TEST(KernelEquivalence, SymmetricExactMatchesTheRationalSum) {
  const Rational dyadic = Rational::from_double(0.456);  // 53-bit numerator
  for (const std::uint32_t n : {1u, 2u, 3u, 5u, 8u, 13u, 24u, 40u, 64u}) {
    const auto nn = static_cast<std::int64_t>(n);
    std::vector<Rational> betas{Rational{311, 500}, Rational{45, 64}, dyadic};
    std::vector<Rational> ts{Rational{nn, 3}, Rational{2 * nn - 1, 2}};
    if (n <= 40) {
      betas.insert(betas.end(), {Rational{0}, Rational{1}, Rational{17, 64}});
      ts.insert(ts.end(), {Rational{nn, 5}, Rational{nn}});
    }
    for (const Rational& beta : betas) {
      for (const Rational& t : ts) {
        EXPECT_EQ(core::symmetric_threshold_winning_probability(n, beta, t),
                  rational_symmetric_sum(n, beta, t))
            << "n=" << n << " beta=" << beta << " t=" << t;
      }
    }
  }
  EXPECT_EQ(core::symmetric_threshold_winning_probability(128, Rational{45, 64}, Rational{128, 3}),
            rational_symmetric_sum(128, Rational{45, 64}, Rational{128, 3}));
}

TEST(KernelEquivalence, ExactRungCapsLeaveNonDoubleInputsWithoutARung) {
  // Past the exact rungs' caps (general n <= 16, volume m <= 30) an input
  // that is not a double has no rung: the ladder throws the exact rung's
  // NumericError, naming the cap, without running any sum.
  const std::vector<Rational> a(17, Rational{1, 3});
  try {
    (void)core::certified_threshold_winning_probability(a, Rational{17, 3});
    ADD_FAILURE() << "general n = 17 with thirds did not throw";
  } catch (const NumericError& error) {
    EXPECT_NE(std::string(error.what()).find("n <= 16"), std::string::npos) << error.what();
  }
  const std::vector<Rational> sigma(31, Rational{1});
  const std::vector<Rational> pi(31, Rational{1, 3});
  try {
    (void)geom::certified_simplex_box_volume(sigma, pi);
    ADD_FAILURE() << "volume m = 31 with thirds did not throw";
  } catch (const NumericError& error) {
    EXPECT_NE(std::string(error.what()).find("m <= 30"), std::string::npos) << error.what();
  }
}

TEST(KernelEquivalence, GeneralThresholdExactHandlesBoundaryThresholds) {
  // Thresholds at 0 and 1 drive whole brackets through their guard branches.
  const std::vector<Rational> corner{Rational{1}, Rational{1}, Rational{0}, Rational{0}};
  const Rational t{4, 3};
  EXPECT_EQ(core::threshold_winning_probability(corner, t),
            reference::threshold_winning_probability(corner, t));
  EXPECT_EQ(core::threshold_winning_probability(corner, t), Rational(49, 81));
}

TEST(KernelEquivalence, GeneralThresholdDoubleMatchesReference) {
  // Agreement is to 1e-12 wherever the NAIVE reference is itself that
  // accurate. Its ones brackets sum O(2^n) cancelling terms of magnitude up
  // to (n - t)^n / n! without compensation, so for n >= 10 the reference
  // carries up to ~2^n * eps * max(t, n-t)^n / n! of its own rounding noise
  // (a long-double probe confirms the Gray/Kahan kernel is the tighter of
  // the two there — see docs/performance.md); widen the tolerance to that
  // analytic floor where it exceeds 1e-12.
  prob::Rng rng{31337};
  for (std::size_t n = 1; n <= 12; n += (n < 8 ? 1 : 2)) {
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<double> a(n);
      for (double& x : a) x = rng.uniform();
      const double t = static_cast<double>(n) * (0.15 + 0.5 * rng.uniform());
      const double fast = core::threshold_winning_probability(a, t);
      const double naive = reference::threshold_winning_probability(a, t);
      const double spread = std::max(t, static_cast<double>(n) - t);
      const double reference_noise =
          std::ldexp(1.0, static_cast<int>(n)) * 2.3e-16 *
          std::pow(spread, static_cast<double>(n)) *
          combinat::inverse_factorial_double(static_cast<std::uint32_t>(n));
      EXPECT_NEAR(fast, naive, std::max(1e-12, reference_noise))
          << "n=" << n << " rep=" << rep << " t=" << t;
      EXPECT_GE(fast, -1e-12);
      EXPECT_LE(fast, 1.0 + 1e-12);
    }
  }
}

TEST(KernelEquivalence, GeneralThresholdDoubleLargeCapacity) {
  // For t near n/2 the brackets sum O(2^n) cancelling terms of magnitude
  // t^n, so the NAIVE reference itself carries ~2^n·eps·t^n/n! of rounding
  // noise (the Gray kernel is Kahan-compensated and tighter). Compare at a
  // tolerance scaled to that noise floor rather than pretending either side
  // is exact to 1e-12 here.
  prob::Rng rng{90210};
  for (std::size_t n = 8; n <= 12; n += 2) {
    std::vector<double> a(n);
    for (double& x : a) x = rng.uniform();
    const double t = 0.5 * static_cast<double>(n);
    const double fast = core::threshold_winning_probability(a, t);
    const double naive = reference::threshold_winning_probability(a, t);
    const double noise_floor =
        std::ldexp(1.0, static_cast<int>(n)) * 1e-16 *
        std::pow(t, static_cast<double>(n)) *
        combinat::inverse_factorial_double(static_cast<std::uint32_t>(n));
    EXPECT_NEAR(fast, naive, std::max(1e-12, 64.0 * noise_floor)) << "n=" << n;
  }
}

TEST(KernelEquivalence, DoubleTracksExactEvaluator) {
  // Independent of the reference loops: the double Gray kernel against the
  // exact Rational Gray kernel on a shared grid.
  const Rational t{4, 3};
  for (int num = 0; num <= 8; ++num) {
    const std::vector<Rational> a(4, Rational{num, 8});
    const std::vector<double> a_d(4, static_cast<double>(num) / 8.0);
    EXPECT_NEAR(core::threshold_winning_probability(a_d, t.to_double()),
                core::threshold_winning_probability(a, t).to_double(), 1e-12)
        << "beta=" << num << "/8";
  }
}

TEST(BatchEvaluator, BitwiseMatchesSinglePointCalls) {
  std::vector<std::vector<double>> points;
  for (int k = 0; k <= 32; ++k) {
    points.push_back(std::vector<double>(5, static_cast<double>(k) / 32.0));
  }
  points.push_back({0.1, 0.9, 0.4, 0.6, 0.5});
  const std::vector<double> batch = core::threshold_winning_probability_batch(points, 5.0 / 3.0);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(batch[p], core::threshold_winning_probability(points[p], 5.0 / 3.0)) << p;
  }
}

TEST(BatchEvaluator, PropagatesValidationErrors) {
  const std::vector<std::vector<double>> points{std::vector<double>{}};
  EXPECT_THROW((void)core::threshold_winning_probability_batch(points, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddm
