#include "util/certify.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace ddm {

namespace {

// Ladder metrics: attempt counts mirror EvalStats; the histograms record
// per-tier wall time so `--metrics` shows where certified evaluation spends
// its budget without a trace.
struct CertifyMetrics {
  obs::Counter double_attempts = obs::counter("certify.attempts.double");
  obs::Counter exact_attempts = obs::counter("certify.attempts.exact");
  obs::Counter escalations = obs::counter("certify.escalations");
  obs::Counter numeric_errors = obs::counter("certify.numeric_errors");
  obs::Histogram double_seconds = obs::histogram("certify.tier_seconds.double");
  obs::Histogram exact_seconds = obs::histogram("certify.tier_seconds.exact");

  [[nodiscard]] obs::Counter attempts(EvalTier tier) const noexcept {
    switch (tier) {
      case EvalTier::kCompensatedDouble: return double_attempts;
      case EvalTier::kExact: return exact_attempts;
    }
    return double_attempts;
  }

  [[nodiscard]] obs::Histogram seconds(EvalTier tier) const noexcept {
    switch (tier) {
      case EvalTier::kCompensatedDouble: return double_seconds;
      case EvalTier::kExact: return exact_seconds;
    }
    return double_seconds;
  }

  static const CertifyMetrics& get() {
    static const CertifyMetrics metrics;
    return metrics;
  }
};

}  // namespace

const char* to_string(EvalTier tier) noexcept {
  switch (tier) {
    case EvalTier::kCompensatedDouble:
      return "compensated-double";
    case EvalTier::kExact:
      return "exact";
  }
  return "unknown";
}

CertifiedValue run_escalation_ladder(const EvalPolicy& policy, const char* label,
                                     std::span<const TierSpec> tiers) {
  const CertifyMetrics& metrics = CertifyMetrics::get();
  // Per-evaluation counters; folded into the policy's cumulative view (if
  // attached) and returned as CertifiedValue::stats on every exit path.
  EvalStats local;
  const auto bump = [&local](EvalTier tier) {
    switch (tier) {
      case EvalTier::kCompensatedDouble:
        ++local.double_attempts;
        break;
      case EvalTier::kExact:
        ++local.exact_attempts;
        break;
    }
  };
  const auto publish = [&policy, &local](CertifiedValue& result) {
    if (policy.stats != nullptr) *policy.stats += local;
    result.stats = local;
  };

  const auto finish = [&](CertifiedValue result, EvalTier tier, bool met) {
    result.tier = tier;
    result.met_tolerance = met;
    publish(result);
    return result;
  };

  std::optional<CertifiedValue> best;
  EvalTier best_tier = EvalTier::kCompensatedDouble;
  std::exception_ptr last_failure;
  bool attempted_before = false;
  std::size_t tiers_attempted = 0;
  const std::size_t tiers_total = tiers.size();
  for (const TierSpec& spec : tiers) {
    if (spec.tier > policy.max_tier) continue;
    // Cooperative stop: polled before each rung, so a deadline that fires
    // while the double tier is running cuts the ladder before the exact
    // rung starts. Counters observed so far still reach the policy's stats.
    switch (policy.control.should_stop()) {
      case util::StopReason::kNone:
        break;
      case util::StopReason::kCancelled:
        if (policy.stats != nullptr) *policy.stats += local;
        throw Cancelled(label, tiers_attempted, tiers_total);
      case util::StopReason::kDeadline:
        if (policy.stats != nullptr) *policy.stats += local;
        throw DeadlineExceeded(label, tiers_attempted, tiers_total);
    }
    ++tiers_attempted;
    if (attempted_before) {
      ++local.escalations;
      metrics.escalations.add();
    }
    attempted_before = true;
    bump(spec.tier);
    metrics.attempts(spec.tier).add();
    CertifiedValue candidate;
    try {
      DDM_SPAN("certify.tier", {{"label", label}, {"tier", to_string(spec.tier)}});
      obs::ScopedTimer timer(metrics.seconds(spec.tier));
      candidate = spec.evaluate();
    } catch (const NumericError&) {
      ++local.numeric_errors;
      metrics.numeric_errors.add();
      last_failure = std::current_exception();
      continue;
    } catch (const StoppedError&) {
      // A rung that polls the control itself (the symmetric exact sum) was
      // cut mid-evaluation: same accounting as a stop between rungs.
      if (policy.stats != nullptr) *policy.stats += local;
      throw;
    }
    if (candidate.width_within(policy.tolerance)) {
      return finish(std::move(candidate), spec.tier, true);
    }
    if (!best.has_value() || candidate.width() < best->width()) {
      best = std::move(candidate);
      best_tier = spec.tier;
    }
  }
  if (!best.has_value()) {
    if (policy.stats != nullptr) *policy.stats += local;
    if (last_failure) std::rethrow_exception(last_failure);
    throw NumericError(std::string(label) + ": no evaluation tier available under this policy");
  }
  return finish(std::move(*best), best_tier, false);
}

CertifiedValue::CertifiedValue(util::RationalInterval enclosure)
    : enclosure_(std::move(enclosure)), value_(enclosure_->midpoint().to_double()) {
  if (!std::isfinite(value_)) {
    bound_ = std::numeric_limits<double>::infinity();
    return;
  }
  const util::Rational centre = util::exact_rational(value_);
  const util::Rational below = centre - enclosure_->lo();
  const util::Rational above = enclosure_->hi() - centre;
  bound_ = util::round_up(below < above ? above : below);
}

CertifiedValue CertifiedValue::centred(double centre, double radius) {
  CertifiedValue result;
  result.value_ = centre;
  result.bound_ = radius;
  return result;
}

util::RationalInterval CertifiedValue::enclosure() const {
  if (enclosure_.has_value()) return *enclosure_;
  const util::Rational centre = util::exact_rational(value_);
  const util::Rational radius = util::exact_rational(bound_);
  return util::RationalInterval{centre - radius, centre + radius};
}

util::Rational CertifiedValue::width() const {
  if (enclosure_.has_value()) return enclosure_->width();
  return util::exact_rational(bound_) * util::Rational{2};
}

bool CertifiedValue::width_within(const util::Rational& tolerance) const {
  if (enclosure_.has_value()) return enclosure_->width() <= tolerance;
  // Rational::to_double divides two BigInt::to_double images when both parts
  // are under 900 bits; each image is within 29 roundings of exact, so a
  // normal quotient lies within 2^-46 of the tolerance — far inside the
  // 2^-40 margin. The width 2r is exact (or +inf past any such tolerance).
  const double doubled = 2 * bound_;
  if (tolerance.num().bit_length() < 900 && tolerance.den().bit_length() < 900) {
    const double approx = tolerance.to_double();
    if (std::isnormal(approx)) {
      if (doubled <= approx * (1 - 0x1p-40)) return true;
      if (doubled > approx * (1 + 0x1p-40)) return false;
    }
  }
  return width() <= tolerance;
}

namespace util {

namespace {
// Absorbs the second-order terms (products of roundoffs, compensated-sum
// O(N·u²) tails) that the first-order running error analyses drop.
constexpr double kTrackedSafety = 4.0;
}  // namespace

CertifiedValue tracked_enclosure(const TrackedDouble& tracked, const char* label) {
  const double bound = kTrackedSafety * tracked.error;
  if (!std::isfinite(tracked.value) || !std::isfinite(bound)) {
    throw NumericError(std::string(label) + ": double tier produced a non-finite value or bound");
  }
  return CertifiedValue::centred(tracked.value, bound);
}

Rational exact_rational(double x) {
  if (!std::isfinite(x)) {
    throw NumericError("exact_rational: non-finite double " + std::to_string(x));
  }
  if (x == 0.0) return Rational{0};
  int exponent = 0;
  const double mantissa = std::frexp(x, &exponent);  // x = mantissa * 2^exponent
  // 53 mantissa bits: mantissa * 2^53 is an exact integer.
  const auto scaled = static_cast<std::int64_t>(std::ldexp(mantissa, 53));
  exponent -= 53;
  if (exponent >= 0) {
    return Rational{BigInt{scaled} << static_cast<std::size_t>(exponent), BigInt{1}};
  }
  return Rational{BigInt{scaled}, BigInt{1} << static_cast<std::size_t>(-exponent)};
}

bool representable_as_double(const Rational& r) {
  const double d = r.to_double();
  if (!std::isfinite(d)) return false;
  return exact_rational(d) == r;
}

double round_up(const Rational& r) {
  double bound = r.to_double();
  while (exact_rational(bound) < r) {
    bound = std::nextafter(bound, std::numeric_limits<double>::infinity());
  }
  return bound;
}

bool exact_double(const Rational& r) noexcept {
  // den = 2^k with k < 900 keeps to_double on its exact num/den division
  // (util/rational.cpp) and the value normal; <= 53 numerator bits make
  // both conversions exact.
  const std::size_t den_bits = r.den().bit_length();
  return r.num().bit_length() <= 53 && den_bits < 900 &&
         r.den().trailing_zero_bits() + 1 == den_bits;
}

}  // namespace util

}  // namespace ddm
