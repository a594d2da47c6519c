// certify.hpp — certified evaluation: enclosures + the escalation ladder.
//
// The fast double kernels (geom/volume.cpp, core/nonoblivious.cpp) evaluate
// alternating inclusion-exclusion sums whose terms can dwarf the result —
// catastrophic cancellation territory. Certified mode never returns a bare
// double: every evaluation produces a rigorous *enclosure* (an exact
// RationalInterval guaranteed to contain the true value) and an automatic
// ladder escalates through progressively more expensive evaluation tiers
// until the enclosure is narrower than the caller's tolerance. Every ladder
// has the same two rungs:
//
//   tier 0  double kernel + rigorous error bound   (~1x the plain kernel)
//   exact   integer inclusion-exclusion sum        (point enclosure)
//
// The general and volume ladders run tier 0 only when every input is exactly
// representable as a double (otherwise the double kernel would silently
// evaluate a *different* instance). The symmetric ladder's tier 0 is a sum
// of nonnegative terms (core/irwin_hall_sum.hpp) with an a priori bound; it
// runs on rounded inputs and charges the rounding gaps to that bound. The
// exact rung takes arbitrary rationals: it puts the inputs over one common
// denominator (util::common_denominator), adds integer terms and normalises
// once; it is capped at n <= 16 on the general ladder and m <= 30 on the
// volume ladder, and past that cap an input that is not a double has no
// rung. The ladder is shared by certified_threshold_winning_probability,
// certified_symmetric_threshold_winning_probability (core/certified.hpp) and
// certified_simplex_box_volume (geom/volume.hpp), and is exposed on the CLI
// as `ddm_cli --certify`. See docs/robustness.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "util/interval.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"

namespace ddm {

/// Evaluation tiers, cheapest first. Numeric values order the ladder.
enum class EvalTier : unsigned {
  kCompensatedDouble = 0,  ///< fast double kernel + rigorous error bound
  kExact = 1,              ///< exact integer sum (width-0 enclosure)
};

[[nodiscard]] const char* to_string(EvalTier tier) noexcept;

/// Counters a caller can attach to EvalPolicy to observe the ladder.
/// `run_escalation_ladder` also publishes the same counts to the process
/// metrics registry (certify.* — see docs/observability.md), so an attached
/// EvalStats is a convenience view, not the only way to observe the ladder.
struct EvalStats {
  std::uint64_t double_attempts = 0;
  std::uint64_t exact_attempts = 0;
  std::uint64_t escalations = 0;      ///< tier-to-tier transitions taken
  std::uint64_t numeric_errors = 0;   ///< tiers abandoned via NumericError

  EvalStats& operator+=(const EvalStats& other) noexcept {
    double_attempts += other.double_attempts;
    exact_attempts += other.exact_attempts;
    escalations += other.escalations;
    numeric_errors += other.numeric_errors;
    return *this;
  }
};

/// Caller-supplied certification policy, threaded through the public API.
struct EvalPolicy {
  /// Maximum acceptable enclosure width. The ladder escalates until the
  /// width is <= tolerance or max_tier is reached.
  util::Rational tolerance{1, 1000000000};
  /// Highest tier the ladder may use.
  EvalTier max_tier = EvalTier::kExact;
  /// Optional observation hook (not owned; may be nullptr).
  EvalStats* stats = nullptr;
  /// Cooperative stop: polled before every tier attempt, so a deadline or
  /// cancellation cuts the ladder mid-escalation (typically before the
  /// expensive exact rung), and inside rungs that poll it themselves (both
  /// symmetric rungs). A stop surfaces as ddm::Cancelled /
  /// ddm::DeadlineExceeded carrying how many tiers were attempted; counters
  /// accumulated so far are still folded into `stats`. Default-constructed =
  /// run the full ladder.
  util::RunControl control;
};

/// A certified result: an enclosure proven to contain the true value, the
/// tier that produced it, and whether the policy tolerance was met. When
/// met_tolerance is false the enclosure is still valid — just wider than
/// requested (the ladder ran out of allowed tiers).
///
/// value() and error_bound() are derived once, when the enclosure is set,
/// so reading them costs nothing. A tier-0 result built with centred() keeps
/// its enclosure as the two doubles of [centre − radius, centre + radius]
/// and builds the rational endpoints only when enclosure() is asked for.
struct CertifiedValue {
  EvalTier tier = EvalTier::kCompensatedDouble;
  bool met_tolerance = false;
  /// Ladder counters for THIS evaluation only. An EvalStats attached to the
  /// policy keeps its historical accumulate-across-calls semantics; callers
  /// that want per-evaluation numbers (e.g. per sweep point) read this
  /// delta instead.
  EvalStats stats;

  /// The point enclosure [0, 0].
  CertifiedValue() = default;
  /// A rational enclosure (implicit, so a ladder rung may return one).
  CertifiedValue(util::RationalInterval enclosure);  // NOLINT(google-explicit-constructor)
  /// The enclosure [centre − radius, centre + radius] of two finite doubles
  /// (radius >= 0): value() is exactly `centre`, error_bound() exactly
  /// `radius`.
  [[nodiscard]] static CertifiedValue centred(double centre, double radius);

  /// The proven enclosure (rational endpoints; built here for centred()).
  [[nodiscard]] util::RationalInterval enclosure() const;
  [[nodiscard]] util::Rational width() const;
  /// Exactly `width() <= tolerance`. For a centred() enclosure the width 2r
  /// is a double and the test runs in doubles; only a width within 2^-40 of
  /// the tolerance is compared in rationals.
  [[nodiscard]] bool width_within(const util::Rational& tolerance) const;
  /// Midpoint of the enclosure as a double — the "answer" for callers that
  /// want one number.
  [[nodiscard]] double value() const noexcept { return value_; }
  /// Proven bound on |value() − exact|: the distance from value() to the
  /// farther enclosure endpoint, rounded up to a double. Covers the midpoint's
  /// rounding to double, so it is the honest figure to print beside value().
  [[nodiscard]] double error_bound() const noexcept { return bound_; }

 private:
  /// nullopt for a centred() enclosure (and the default [0, 0]).
  std::optional<util::RationalInterval> enclosure_;
  double value_ = 0.0;
  double bound_ = 0.0;
};

/// One rung of the ladder: computes an enclosure — a CertifiedValue whose
/// tier, met_tolerance and stats the ladder fills in (a RationalInterval
/// converts) — or throws ddm::NumericError when this tier cannot evaluate
/// the instance (overflow, unsupported size).
struct TierSpec {
  EvalTier tier;
  std::function<CertifiedValue()> evaluate;
};

/// Runs `tiers` (ordered cheapest-first) under `policy`: attempts each tier
/// no higher than policy.max_tier, accepts the first enclosure with width <=
/// policy.tolerance, and otherwise returns the narrowest enclosure any tier
/// produced with met_tolerance = false. Throws the last tier's NumericError
/// only if *no* tier produced an enclosure. `label` names the evaluation in
/// error messages.
[[nodiscard]] CertifiedValue run_escalation_ladder(const EvalPolicy& policy, const char* label,
                                                   std::span<const TierSpec> tiers);

namespace util {

/// A double value paired with a first-order bound on its absolute error,
/// maintained by the tier-0 tracked-double kernels.
struct TrackedDouble {
  double value = 0.0;
  double error = 0.0;
};

/// Converts a tracked double into a rigorous enclosure, centred on its value
/// (CertifiedValue::centred), inflating the bound by a safety factor that
/// absorbs the second-order roundoff terms the running analysis drops.
/// Throws ddm::NumericError when the value or bound is non-finite (the
/// escalation signal of the double tier).
[[nodiscard]] CertifiedValue tracked_enclosure(const TrackedDouble& tracked, const char* label);

/// Exact rational value of a finite double (every finite double is a dyadic
/// rational). Throws ddm::NumericError on NaN/inf.
[[nodiscard]] Rational exact_rational(double x);

/// True iff `r` round-trips exactly through double — the precondition for
/// the tier-0 double kernel to evaluate the *same* instance.
[[nodiscard]] bool representable_as_double(const Rational& r);

/// A double >= `r`: Rational::to_double nudged upward until its exact value
/// is no smaller, so it can stand in for `r` in an error bound.
[[nodiscard]] double round_up(const Rational& r);

/// True when `r` is a dyadic rational whose value Rational::to_double
/// returns exactly (at most 53 significant bits, a normal exponent): such an
/// input needs no rounding gap.
[[nodiscard]] bool exact_double(const Rational& r) noexcept;

}  // namespace util

}  // namespace ddm
