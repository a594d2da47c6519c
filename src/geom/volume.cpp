#include "geom/volume.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/kahan.hpp"
#include "util/status.hpp"

namespace ddm::geom {

using util::Rational;

namespace {

void check_positive(std::span<const Rational> sides, const char* what) {
  if (sides.empty()) throw std::invalid_argument(std::string(what) + ": dimension must be >= 1");
  for (const Rational& s : sides) {
    if (s.signum() <= 0) throw std::invalid_argument(std::string(what) + ": sides must be > 0");
  }
}

}  // namespace

Rational simplex_volume(std::span<const Rational> sigma) {
  check_positive(sigma, "simplex_volume");
  Rational product{1};
  for (const Rational& s : sigma) product *= s;
  return product * combinat::inverse_factorial(static_cast<std::uint32_t>(sigma.size()));
}

Rational box_volume(std::span<const Rational> pi) {
  check_positive(pi, "box_volume");
  Rational product{1};
  for (const Rational& p : pi) product *= p;
  return product;
}

Rational corner_simplex_volume(std::span<const Rational> sigma, std::span<const Rational> pi,
                               const std::vector<bool>& in_subset) {
  check_positive(sigma, "corner_simplex_volume");
  if (sigma.size() != pi.size() || sigma.size() != in_subset.size()) {
    throw std::invalid_argument("corner_simplex_volume: size mismatch");
  }
  Rational ratio_sum{0};
  for (std::size_t l = 0; l < sigma.size(); ++l) {
    if (in_subset[l]) ratio_sum += pi[l] / sigma[l];
  }
  if (ratio_sum >= Rational{1}) return Rational{0};
  const Rational scale = Rational{1} - ratio_sum;
  return simplex_volume(sigma) * scale.pow(static_cast<std::int64_t>(sigma.size()));
}

Rational simplex_box_volume(std::span<const Rational> sigma, std::span<const Rational> pi) {
  check_positive(sigma, "simplex_box_volume");
  check_positive(pi, "simplex_box_volume");
  if (sigma.size() != pi.size()) {
    throw std::invalid_argument("simplex_box_volume: size mismatch");
  }
  const std::size_t m = sigma.size();
  if (m > 30) {
    throw std::invalid_argument("simplex_box_volume: exact version limited to m <= 30");
  }
  std::vector<Rational> ratio(m);
  for (std::size_t l = 0; l < m; ++l) ratio[l] = pi[l] / sigma[l];
  // With the ratios π_l/σ_l = R_l/D over one common denominator, the
  // Proposition 2.2 sum is an integer sum over the feasible subsets,
  //   Σ_{I, Σ_I R_l < D} (−1)^{|I|} (D − Σ_{l∈I} R_l)^m,
  // divided once by D^m. Subsets are visited in reflected Gray-code order so
  // the running Σ_{l∈I} R_l needs exactly one add or subtract per subset;
  // the sign (−1)^|I| alternates with the step index (docs/performance.md).
  const util::CommonDenominator common = util::common_denominator(ratio);
  const util::BigInt& d = common.denominator;
  util::BigInt remainder = d;  // D − Σ_{l∈I} R_l for the current subset
  util::BigInt sum = util::BigInt::pow(d, m);  // empty subset
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      remainder -= common.numerators[j];
    } else {
      remainder += common.numerators[j];
    }
    if (remainder.signum() <= 0) continue;
    const util::BigInt term = util::BigInt::pow(remainder, m);
    if (combinat::gray_parity_odd(i)) {
      sum -= term;
    } else {
      sum += term;
    }
  }
  return simplex_volume(sigma) * Rational{std::move(sum), util::BigInt::pow(d, m)};
}

double simplex_box_volume_double(std::span<const double> sigma, std::span<const double> pi) {
  if (sigma.empty() || sigma.size() != pi.size()) {
    throw std::invalid_argument("simplex_box_volume_double: bad dimensions");
  }
  const std::size_t m = sigma.size();
  if (m > 62) {
    throw std::invalid_argument("simplex_box_volume_double: m too large for subset masks");
  }
  std::vector<double> ratio(m);
  double side_product = 1.0;
  for (std::size_t l = 0; l < m; ++l) {
    if (sigma[l] <= 0.0 || pi[l] <= 0.0) {
      throw std::invalid_argument("simplex_box_volume_double: sides must be > 0");
    }
    ratio[l] = require_finite(pi[l] / sigma[l], "simplex_box_volume_double: ratio pi/sigma");
    side_product = require_finite(side_product * sigma[l],
                                  "simplex_box_volume_double: side product");
  }
  DDM_SPAN("kernel.volume_ie", {{"m", static_cast<std::int64_t>(m)}});
  {
    static const obs::Counter subsets = obs::counter("kernel.subsets_visited");
    if (obs::metrics_enabled() && m < 63) subsets.add(std::uint64_t{1} << m);
  }
  // Same Gray-code walk as the exact version: one add per subset plus a
  // binary-exponentiation power instead of std::pow. Both the running ratio
  // sum and the term accumulator carry Kahan compensation so the incremental
  // updates stay within a few ulps of fresh recomputation over all 2^m steps.
  const auto mm = static_cast<std::uint32_t>(m);
  util::KahanSum ratio_sum;
  std::uint64_t mask = 0;
  util::KahanSum sum{1.0};  // empty subset: (1 − 0)^m
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    ratio_sum.add((mask & bit) ? ratio[j] : -ratio[j]);
    const double rs = ratio_sum.get();
    if (rs >= 1.0) continue;
    const double term = combinat::pow_uint(1.0 - rs, mm);
    sum.add(combinat::gray_parity_odd(i) ? -term : term);
  }
  if (obs::metrics_enabled()) {
    static const obs::Histogram compensation = obs::histogram("kernel.kahan_compensation");
    compensation.record(std::abs(sum.compensation));
  }
  return require_finite(side_product * combinat::inverse_factorial_double(mm) * sum.get(),
                        "simplex_box_volume_double: result");
}

namespace {

constexpr double kU = 0x1p-53;  // unit roundoff of IEEE double

double pow_mults(std::uint32_t e) { return 2.0 * static_cast<double>(std::bit_width(e)); }

// Tier 0: the Gray-code double kernel above with a running error bound. The
// compensated running ratio sum carries the Neumaier bound 2u·Σ|increments|
// plus u·Σ|ratio| for the rounding already inside each ratio; a subset whose
// 1 − Σ ratio lands within the bound of zero has an uncertain feasibility
// indicator, so its possible term is charged to the error instead.
util::TrackedDouble simplex_box_volume_t0(std::span<const double> sigma,
                                          std::span<const double> pi) {
  const std::size_t m = sigma.size();
  const auto mm = static_cast<std::uint32_t>(m);
  std::vector<double> ratio(m);
  double side_product = 1.0;
  for (std::size_t l = 0; l < m; ++l) {
    ratio[l] = pi[l] / sigma[l];
    side_product *= sigma[l];
  }
  util::KahanSum ratio_sum;
  double abs_inc = 0.0;
  util::KahanSum sum{1.0};  // empty subset: (1 − 0)^m, exact
  double abs_sum = 1.0;
  double err = 0.0;
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    ratio_sum.add((mask & bit) ? ratio[j] : -ratio[j]);
    abs_inc += ratio[j];
    const double rs = ratio_sum.get();
    const double base = 1.0 - rs;
    const double err_base = 3.0 * kU * abs_inc + kU * std::abs(base);
    if (base <= err_base) {
      if (base > -err_base) err += combinat::pow_uint(std::abs(base) + err_base, mm);
      continue;
    }
    const double p1 = combinat::pow_uint(base, mm - 1);
    const double term = p1 * base;
    err += static_cast<double>(m) * p1 * err_base + (pow_mults(mm) + 1.0) * kU * term;
    sum.add(combinat::gray_parity_odd(i) ? -term : term);
    abs_sum += term;
  }
  const double prefactor = side_product * combinat::inverse_factorial_double(mm);
  const double value = prefactor * sum.get();
  const double error = std::abs(prefactor) * (err + 2.0 * kU * abs_sum) +
                       (static_cast<double>(m) + 3.0) * kU * std::abs(value);
  return {value, error};
}

}  // namespace

ddm::CertifiedValue certified_simplex_box_volume(std::span<const Rational> sigma,
                                                 std::span<const Rational> pi,
                                                 const ddm::EvalPolicy& policy) {
  check_positive(sigma, "certified_simplex_box_volume");
  check_positive(pi, "certified_simplex_box_volume");
  if (sigma.size() != pi.size()) {
    throw std::invalid_argument("certified_simplex_box_volume: size mismatch");
  }
  if (sigma.size() > 62) {
    throw std::invalid_argument("certified_simplex_box_volume: m too large for subset masks");
  }

  const auto representable = [](std::span<const Rational> values) {
    for (const Rational& v : values) {
      if (!util::representable_as_double(v)) return false;
    }
    return true;
  };

  const ddm::TierSpec tiers[] = {
      {ddm::EvalTier::kCompensatedDouble,
       [&]() -> ddm::CertifiedValue {
         if (!representable(sigma) || !representable(pi)) {
           throw ddm::NumericError(
               "certified_simplex_box_volume: inputs not representable as doubles");
         }
         std::vector<double> sd(sigma.size());
         std::vector<double> pd(pi.size());
         for (std::size_t l = 0; l < sigma.size(); ++l) {
           sd[l] = sigma[l].to_double();
           pd[l] = pi[l].to_double();
         }
         return util::tracked_enclosure(simplex_box_volume_t0(sd, pd),
                                        "certified_simplex_box_volume");
       }},
      {ddm::EvalTier::kExact,
       [&]() -> util::RationalInterval {
         if (sigma.size() > 30) {
           throw ddm::NumericError("certified_simplex_box_volume: exact tier limited to m <= 30");
         }
         return util::RationalInterval{simplex_box_volume(sigma, pi)};
       }},
  };
  return ddm::run_escalation_ladder(policy, "certified_simplex_box_volume", tiers);
}

}  // namespace ddm::geom
