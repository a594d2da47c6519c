// Tests for certified evaluation (util/certify.hpp, core/certified.hpp,
// geom/volume.hpp): enclosures must contain the independently-computed exact
// value on instances small enough for the exact kernels, the symmetric
// ladder must visibly climb from its double tier straight to the exact rung
// when the tolerance is below tier 0's bound, and the ladder plumbing
// (stats, max_tier capping, non-finite guards in the plain double kernels)
// must behave as documented in docs/robustness.md.
#include "core/certified.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/nonoblivious.hpp"
#include "core/symmetric_threshold.hpp"
#include "geom/volume.hpp"
#include "obs/metrics_registry.hpp"
#include "util/certify.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using util::Rational;

TEST(TrackedEnclosure, BoundsAreOutwardAndRejectNonFinite) {
  const util::TrackedDouble tracked{1.5, 0x1p-40};
  const util::RationalInterval enclosure = util::tracked_enclosure(tracked, "test").enclosure();
  EXPECT_TRUE(enclosure.contains(Rational{3, 2}));
  EXPECT_TRUE(enclosure.width() > Rational{0});
  EXPECT_THROW((void)util::tracked_enclosure({std::numeric_limits<double>::infinity(), 0.0}, "t"),
               NumericError);
  EXPECT_THROW((void)util::tracked_enclosure({1.0, std::numeric_limits<double>::quiet_NaN()}, "t"),
               NumericError);
}

TEST(ExactRational, RoundTripsDyadicDoubles) {
  for (const double x : {0.0, 1.0, -0.375, 0x1p-53, 6.25, 1048577.0}) {
    EXPECT_EQ(util::exact_rational(x).to_double(), x) << x;
  }
  EXPECT_THROW((void)util::exact_rational(std::numeric_limits<double>::quiet_NaN()), NumericError);
  EXPECT_TRUE(util::representable_as_double(Rational{3, 8}));
  EXPECT_TRUE(util::representable_as_double(Rational{1}));
  EXPECT_FALSE(util::representable_as_double(Rational{1, 3}));
  EXPECT_FALSE(util::representable_as_double(Rational{37, 100}));
}

TEST(CertifiedThreshold, EnclosureContainsExactValueOnSmallInstances) {
  // Cross-check every tier against the independent exact kernel. Thresholds
  // are dyadic so tier 0 is eligible; the enclosure from whichever tier the
  // ladder settles on must contain the true rational value.
  const std::vector<std::vector<Rational>> instances = {
      {Rational{1, 2}},
      {Rational{1, 4}, Rational{3, 4}},
      {Rational{1, 8}, Rational{1, 2}, Rational{7, 8}},
      {Rational{3, 8}, Rational{3, 8}, Rational{3, 8}, Rational{3, 8}},
  };
  for (const auto& a : instances) {
    for (const Rational& t : {Rational{1, 2}, Rational{1}, Rational{3, 2}}) {
      const Rational exact = core::threshold_winning_probability(a, t);
      const CertifiedValue certified = core::certified_threshold_winning_probability(a, t);
      EXPECT_TRUE(certified.enclosure().contains(exact))
          << "n=" << a.size() << " t=" << t.to_double();
      EXPECT_TRUE(certified.met_tolerance);
    }
  }
}

TEST(CertifiedThreshold, NonpositiveThresholdIsExactZero) {
  const std::vector<Rational> a = {Rational{1, 2}, Rational{1, 2}};
  const CertifiedValue certified = core::certified_threshold_winning_probability(a, Rational{0});
  EXPECT_EQ(certified.enclosure().width(), Rational{0});
  EXPECT_TRUE(certified.enclosure().contains(Rational{0}));
  EXPECT_TRUE(certified.met_tolerance);
}

TEST(CertifiedThreshold, RejectsBadInputs) {
  EXPECT_THROW((void)core::certified_threshold_winning_probability({}, Rational{1}),
               std::invalid_argument);
  const std::vector<Rational> out_of_range = {Rational{3, 2}};
  EXPECT_THROW((void)core::certified_threshold_winning_probability(out_of_range, Rational{1}),
               std::invalid_argument);
}

TEST(CertifiedSymmetric, EnclosureContainsExactValue) {
  for (const std::uint32_t n : {1u, 3u, 8u, 15u}) {
    const Rational beta{3, 8};
    const Rational t{n, 3};
    const Rational exact = core::symmetric_threshold_winning_probability(n, beta, t);
    const CertifiedValue certified =
        core::certified_symmetric_threshold_winning_probability(n, beta, t);
    EXPECT_TRUE(certified.enclosure().contains(exact)) << "n=" << n;
    EXPECT_TRUE(certified.met_tolerance) << "n=" << n;
  }
}

/// Below tier 0's a priori bound at n = 24, beta = 3/8, t = 8 (about 3e-14),
/// so that point must climb to the exact rung.
const Rational kBelowTier0{1, 1000000000000000};

TEST(CertifiedSymmetric, EscalatesDoubleToExactAtN24) {
  // n = 24, beta = 3/8, t = 8 under a 1e-15 tolerance: tier 0's bound does
  // not meet it, so the ladder escalates once, to the exact sum.
  EvalStats stats;
  EvalPolicy policy;
  policy.tolerance = kBelowTier0;
  policy.stats = &stats;
  const Rational beta{3, 8};
  const Rational t{8};
  const CertifiedValue certified =
      core::certified_symmetric_threshold_winning_probability(24, beta, t, policy);
  EXPECT_EQ(stats.double_attempts, 1u);
  EXPECT_EQ(stats.exact_attempts, 1u);
  EXPECT_EQ(stats.escalations, 1u);
  EXPECT_EQ(certified.tier, EvalTier::kExact);
  EXPECT_TRUE(certified.met_tolerance);
  const Rational exact = core::symmetric_threshold_winning_probability(24, beta, t);
  EXPECT_EQ(certified.enclosure().lo(), exact);
  EXPECT_EQ(certified.width(), Rational{0});
}

TEST(CertifiedSymmetric, ResultStatsArePerEvaluationWhilePolicyStatsAccumulate) {
  // Regression: a single EvalStats attached to the policy of a sweep used to
  // be the only counter, so per-point reporting showed cumulative totals
  // (1, 2, 3, ... escalations across points). CertifiedValue::stats must
  // carry the delta for each evaluation alone; the policy-attached view keeps
  // accumulating.
  EvalStats cumulative;
  EvalPolicy policy;
  policy.tolerance = kBelowTier0;
  policy.stats = &cumulative;
  const Rational beta{3, 8};
  const Rational t{8};
  // This tolerance forces exactly one escalation (double -> exact) per call.
  const CertifiedValue first =
      core::certified_symmetric_threshold_winning_probability(24, beta, t, policy);
  const CertifiedValue second =
      core::certified_symmetric_threshold_winning_probability(24, beta, t, policy);
  EXPECT_EQ(first.stats.double_attempts, 1u);
  EXPECT_EQ(second.stats.double_attempts, 1u);
  EXPECT_EQ(first.stats.escalations, second.stats.escalations);
  EXPECT_GE(first.stats.escalations, 1u);
  // The policy view accumulates across both calls.
  EXPECT_EQ(cumulative.double_attempts, 2u);
  EXPECT_EQ(cumulative.escalations, first.stats.escalations + second.stats.escalations);
  // With no policy hook attached, the per-evaluation counters still work.
  EvalPolicy bare_policy;
  bare_policy.tolerance = kBelowTier0;
  const CertifiedValue bare =
      core::certified_symmetric_threshold_winning_probability(24, beta, t, bare_policy);
  EXPECT_EQ(bare.stats.double_attempts, 1u);
  EXPECT_EQ(bare.stats.escalations, first.stats.escalations);
}

TEST(CertifiedSymmetric, NonDyadicInputsSettleOnDoubleTier) {
  // beta = 37/100 and t = n/3 have no finite binary expansion. Tier 0
  // evaluates the rounded instance and charges both rounding gaps to its
  // bound, so it settles the point itself — no NumericError, no escalation —
  // and its enclosure still contains the exact value of the REAL instance.
  const std::pair<Rational, Rational> instances[] = {
      {Rational{37, 100}, Rational{2}},
      {Rational{3, 8}, Rational{8, 3}},
      {Rational{1, 3}, Rational{7, 5}},
  };
  for (const auto& [beta, t] : instances) {
    EvalStats stats;
    EvalPolicy policy;
    policy.stats = &stats;
    const CertifiedValue certified =
        core::certified_symmetric_threshold_winning_probability(8, beta, t, policy);
    EXPECT_EQ(stats.numeric_errors, 0u);
    EXPECT_EQ(stats.escalations, 0u);
    EXPECT_EQ(certified.tier, EvalTier::kCompensatedDouble);
    EXPECT_TRUE(certified.met_tolerance);
    const Rational exact = core::symmetric_threshold_winning_probability(8, beta, t);
    EXPECT_TRUE(certified.enclosure().contains(exact)) << beta << " " << t;
  }
}

TEST(CertifiedSymmetric, ErrorBoundCoversTheRoundedValue) {
  // error_bound() is what sweep rows and serve replies print beside value():
  // it must bound the distance from the DOUBLE value to the exact value, on
  // tier-0 enclosures and on width-0 exact ones alike (where only the
  // midpoint's rounding to double remains).
  for (const std::uint32_t n : {6u, 24u}) {
    const Rational beta{37, 100};
    const Rational t{n, 3};
    const CertifiedValue certified =
        core::certified_symmetric_threshold_winning_probability(n, beta, t);
    const Rational exact = core::symmetric_threshold_winning_probability(n, beta, t);
    const Rational distance = (util::exact_rational(certified.value()) - exact).abs();
    EXPECT_TRUE(distance <= util::exact_rational(certified.error_bound())) << "n=" << n;
    EXPECT_LE(certified.error_bound(), 1e-9) << "n=" << n;
  }
}

TEST(CertifiedSymmetric, ExactSumPollsItsControl) {
  // The exact rung is the ladder's unbounded cost (about n^3.6); it polls
  // its control once per outer term, so an expired budget stops it before
  // the first term and says how far it got.
  util::RunControl control;
  control.deadline = util::Deadline::after(std::chrono::nanoseconds(0));
  try {
    (void)core::symmetric_threshold_winning_probability(64, Rational{1, 3}, Rational{64, 3},
                                                         control);
    FAIL() << "expired deadline did not stop the exact sum";
  } catch (const DeadlineExceeded& stop) {
    EXPECT_EQ(stop.completed(), 0u);
    EXPECT_EQ(stop.total(), 65u);
  }
  util::RunControl cancelled;
  cancelled.token = util::CancelToken::create();
  cancelled.token.cancel();
  EXPECT_THROW((void)core::symmetric_threshold_winning_probability(8, Rational{1, 2},
                                                                   Rational{8, 3}, cancelled),
               Cancelled);
}

TEST(CertifiedSymmetric, MaxTierCapsTheLadder) {
  // Same instance and tolerance, but the ladder is forbidden to leave the
  // double tier: it must still return a valid (wider) enclosure and report
  // that the tolerance was not met, rather than throwing.
  EvalPolicy policy;
  policy.tolerance = kBelowTier0;
  policy.max_tier = EvalTier::kCompensatedDouble;
  const CertifiedValue certified =
      core::certified_symmetric_threshold_winning_probability(24, Rational{3, 8}, Rational{8},
                                                              policy);
  EXPECT_EQ(certified.tier, EvalTier::kCompensatedDouble);
  EXPECT_FALSE(certified.met_tolerance);
  const Rational exact =
      core::symmetric_threshold_winning_probability(24, Rational{3, 8}, Rational{8});
  EXPECT_TRUE(certified.enclosure().contains(exact));
}

TEST(CertifiedSymmetric, ZeroToleranceForcesExactTier) {
  EvalStats stats;
  EvalPolicy policy;
  policy.tolerance = Rational{0};
  policy.stats = &stats;
  const CertifiedValue certified = core::certified_symmetric_threshold_winning_probability(
      5, Rational{1, 2}, Rational{2}, policy);
  EXPECT_EQ(certified.tier, EvalTier::kExact);
  EXPECT_TRUE(certified.met_tolerance);
  EXPECT_EQ(certified.enclosure().width(), Rational{0});
  EXPECT_EQ(stats.exact_attempts, 1u);
  EXPECT_EQ(certified.enclosure().lo(),
            core::symmetric_threshold_winning_probability(5, Rational{1, 2}, Rational{2}));
}

TEST(CertifiedSymmetric, AgreesWithSymbolicPiecewiseAnalysis) {
  // Independent cross-check: the exact symbolic pieces of
  // SymmetricThresholdAnalysis evaluated at rational probes must land inside
  // the ladder's enclosure for the same (n, beta, t).
  for (const std::uint32_t n : {2u, 4u, 6u}) {
    const Rational t{static_cast<std::int64_t>(n), 3};
    const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
    for (const Rational& beta :
         {Rational{1, 4}, Rational{1, 2}, Rational{5, 8}, Rational{2, 3}}) {
      const Rational symbolic = analysis.winning_probability()(beta);
      const CertifiedValue certified =
          core::certified_symmetric_threshold_winning_probability(n, beta, t);
      EXPECT_TRUE(certified.enclosure().contains(symbolic))
          << "n=" << n << " beta=" << beta.to_double();
    }
  }
}

// --- the per-request fast path ------------------------------------------

void expect_same_certificate(const CertifiedValue& fast, const CertifiedValue& ladder,
                             const std::string& where) {
  const util::RationalInterval fast_enclosure = fast.enclosure();
  const util::RationalInterval ladder_enclosure = ladder.enclosure();
  EXPECT_EQ(fast_enclosure.lo(), ladder_enclosure.lo()) << where;
  EXPECT_EQ(fast_enclosure.hi(), ladder_enclosure.hi()) << where;
  EXPECT_EQ(fast.width(), ladder.width()) << where;
  EXPECT_EQ(fast.tier, ladder.tier) << where;
  EXPECT_EQ(fast.met_tolerance, ladder.met_tolerance) << where;
  // Bitwise: the fast path reads its centre and radius, the ladder derives
  // them from rational endpoints.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.value()),
            std::bit_cast<std::uint64_t>(ladder.value())) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.error_bound()),
            std::bit_cast<std::uint64_t>(ladder.error_bound())) << where;
  EXPECT_EQ(fast.stats.double_attempts, ladder.stats.double_attempts) << where;
  EXPECT_EQ(fast.stats.exact_attempts, ladder.stats.exact_attempts) << where;
  EXPECT_EQ(fast.stats.escalations, ladder.stats.escalations) << where;
  EXPECT_EQ(fast.stats.numeric_errors, ladder.stats.numeric_errors) << where;
}

/// The certify.* counters and tier-time sample counts, by name.
std::map<std::string, std::uint64_t> certify_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const obs::MetricSample& sample : obs::Registry::instance().scrape()) {
    if (sample.name.rfind("certify.", 0) != 0) continue;
    counts[sample.name] = sample.kind == obs::MetricSample::Kind::kHistogram
                              ? sample.histogram_count
                              : sample.counter_value;
  }
  return counts;
}

TEST(SymmetricCertifier, FastPathMatchesTheLadderBitForBit) {
  // Every point of a 1/1024 beta grid (plus non-dyadic betas that need a
  // rounding gap), at t = n/3 (rounded once per request) and t = n/4
  // (dyadic), evaluated three ways: the per-request fast path from the exact
  // rational and from a double, and the generic per-point ladder. Certificates
  // and certify.* counters must agree exactly. From n = 13 on the grid is
  // strided to keep the test quick.
  std::vector<Rational> probes;
  for (std::int64_t k = 0; k <= 1024; ++k) probes.emplace_back(k, 1024);
  for (std::int64_t k = 1; k < 100; k += 7) probes.emplace_back(k, 100);
  obs::set_metrics_enabled(true);
  for (std::uint32_t n = 1; n <= 24; ++n) {
    const std::size_t stride = n <= 12 ? 1 : n <= 18 ? 16 : 64;
    for (const Rational& t : {Rational{n, 3}, Rational{n, 4}}) {
      const std::string instance = "n=" + std::to_string(n) + " t=" + t.to_string();
      const core::SymmetricCertifier certifier(n, t);
      std::vector<CertifiedValue> fast;
      obs::Registry::instance().reset();
      for (std::size_t k = 0; k < probes.size(); k += stride) {
        fast.push_back(certifier.evaluate(probes[k]));
      }
      const auto fast_counts = certify_counts();
      obs::Registry::instance().reset();
      for (std::size_t k = 0, i = 0; k < probes.size(); k += stride, ++i) {
        expect_same_certificate(fast[i], certifier.evaluate_on_ladder(probes[k]),
                                instance + " beta=" + probes[k].to_string());
      }
      EXPECT_EQ(fast_counts, certify_counts()) << instance;
      for (std::size_t k = 0, i = 0; k < probes.size(); k += stride, ++i) {
        if (!util::representable_as_double(probes[k])) continue;
        expect_same_certificate(certifier.evaluate(probes[k].to_double()), fast[i],
                                instance + " double beta=" + probes[k].to_string());
      }
    }
  }
  obs::set_metrics_enabled(false);
}

TEST(CertifiedValueCentred, MatchesItsRationalEnclosure) {
  // A centred result must say exactly what the same enclosure says when it
  // is built from rationals: value and bound bit for bit, and the width test
  // — decided in doubles — exactly as the rational comparison, including
  // radii one ulp either side of half the tolerance.
  const Rational tolerances[] = {Rational{1, 1000000000}, Rational{1, 3},   Rational{0},
                                 Rational{-1, 2},         Rational{3, 1024}, util::exact_rational(0x1p-1070),
                                 Rational{util::BigInt::pow(util::BigInt{10}, 400), util::BigInt{1}}};
  for (const Rational& tolerance : tolerances) {
    const double half = (tolerance * Rational{1, 2}).to_double();
    std::vector<double> radii = {0.0, 0x1p-1074, 1e-200, 1e-17, 0.25, 1e100};
    if (std::isfinite(half) && half > 0) {
      for (double r = half, k = 0; k < 3; ++k) {
        radii.push_back(r);
        radii.push_back(std::nextafter(r, 0.0));
        radii.push_back(std::nextafter(r, 1.0));
        r = std::nextafter(r, 1.0);
      }
    }
    for (const double radius : radii) {
      const CertifiedValue centred = CertifiedValue::centred(0.375, radius);
      const CertifiedValue rational{centred.enclosure()};
      const std::string where = "tol=" + tolerance.to_string() + " r=" + std::to_string(radius);
      EXPECT_EQ(centred.width(), rational.width()) << where;
      EXPECT_EQ(centred.width_within(tolerance), rational.width() <= tolerance) << where;
      EXPECT_EQ(rational.width_within(tolerance), rational.width() <= tolerance) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(centred.value()),
                std::bit_cast<std::uint64_t>(rational.value())) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(centred.error_bound()),
                std::bit_cast<std::uint64_t>(rational.error_bound())) << where;
    }
  }
}

TEST(SymmetricCertifier, OneCallMatchesThePreparedRequest) {
  // The one-point API is a one-point SymmetricCertifier, under tolerances
  // that are not dyadic, zero, or wider than any width.
  for (const Rational& tolerance :
       {Rational{1, 1000000000}, Rational{0}, Rational{1, 3}, Rational{1000}}) {
    EvalPolicy policy;
    policy.tolerance = tolerance;
    const core::SymmetricCertifier certifier(9, Rational{3}, policy);
    for (const Rational& beta : {Rational{0}, Rational{5, 16}, Rational{37, 100}, Rational{1}}) {
      const CertifiedValue one =
          core::certified_symmetric_threshold_winning_probability(9, beta, Rational{3}, policy);
      expect_same_certificate(one, certifier.evaluate_on_ladder(beta),
                              "tol=" + tolerance.to_string() + " beta=" + beta.to_string());
    }
  }
  EXPECT_THROW((void)core::SymmetricCertifier(4, Rational{1}).evaluate(Rational{9, 8}),
               std::invalid_argument);
  EXPECT_THROW((void)core::SymmetricCertifier(4, Rational{1}).evaluate(-0.25),
               std::invalid_argument);
  EXPECT_THROW((void)core::SymmetricCertifier(0, Rational{1}), std::invalid_argument);
}

TEST(CertifiedVolume, EnclosureContainsExactValue) {
  const std::vector<Rational> sigma = {Rational{1, 2}, Rational{1, 3}, Rational{1, 4}};
  const std::vector<Rational> pi = {Rational{1, 4}, Rational{1, 4}, Rational{1, 8}};
  const Rational exact = geom::simplex_box_volume(sigma, pi);
  const CertifiedValue certified = geom::certified_simplex_box_volume(sigma, pi);
  EXPECT_TRUE(certified.enclosure().contains(exact));
  EXPECT_TRUE(certified.met_tolerance);
}

TEST(CertifiedVolume, UnrepresentableSidesUseExactTier) {
  EvalStats stats;
  EvalPolicy policy;
  policy.stats = &stats;
  const std::vector<Rational> sigma = {Rational{1, 3}, Rational{1, 7}};
  const std::vector<Rational> pi = {Rational{1, 5}, Rational{1, 11}};
  const CertifiedValue certified = geom::certified_simplex_box_volume(sigma, pi, policy);
  // Tier 0 is attempted but must abandon via NumericError (inputs not
  // dyadic); the next rung is the exact sum.
  EXPECT_EQ(stats.numeric_errors, 1u);
  EXPECT_EQ(stats.exact_attempts, 1u);
  EXPECT_EQ(certified.tier, EvalTier::kExact);
  EXPECT_EQ(certified.enclosure(),
            util::RationalInterval{geom::simplex_box_volume(sigma, pi)});
}

TEST(DoubleKernels, GuardNonFiniteIntermediates) {
  // The plain double kernels must throw NumericError instead of silently
  // returning inf/NaN when an intermediate overflows: a degenerate box with a
  // denormal-tiny side makes pi/sigma overflow in simplex_box_volume_double.
  const std::vector<double> sigma = {5e-324, 0.5};
  const std::vector<double> pi = {1.0, 0.25};
  EXPECT_THROW((void)geom::simplex_box_volume_double(sigma, pi), NumericError);
}

TEST(EvalTierNames, AreHumanReadable) {
  EXPECT_STREQ(to_string(EvalTier::kCompensatedDouble), "compensated-double");
  EXPECT_STREQ(to_string(EvalTier::kExact), "exact");
}

}  // namespace
}  // namespace ddm
