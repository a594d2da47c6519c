#include "core/certified.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
#include "core/irwin_hall_sum.hpp"
#include "core/nonoblivious.hpp"
#include "obs/trace.hpp"
#include "util/kahan.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::KahanSum;
using util::Rational;
using util::RationalInterval;

namespace {

// Unit roundoff of IEEE double under round-to-nearest.
constexpr double kU = 0x1p-53;

// Upper bound on the number of multiplications pow_uint(·, e) performs.
double pow_mults(std::uint32_t e) { return 2.0 * static_cast<double>(std::bit_width(e)); }

using Tracked = util::TrackedDouble;

RationalInterval point(const Rational& r) { return RationalInterval{r}; }

// ---------------------------------------------------------------------------
// Symmetric Theorem 5.1, tier 0: the positive double sum of
// core/irwin_hall_sum.hpp with its a priori bound. The inputs need not be
// representable: β and t are rounded to double once, and each rounding gap,
// computed exactly from the rationals, is charged through P's Lipschitz
// constants (symmetric_threshold_sum_bound).
constexpr const char* kSymLabel = "certified_symmetric_threshold_winning_probability";

// An input rounded to double, with an upper bound on |exact − value|.
struct RoundedInput {
  double value = 0;
  double gap = 0;
};

struct SymInputs {
  RoundedInput beta;
  RoundedInput t;
};

RoundedInput round_input(const Rational& exact) {
  const double head = exact.to_double();
  if (!std::isfinite(head)) return {head, std::numeric_limits<double>::infinity()};
  // Rational::to_double may sit a few ulps off; one step on the exact
  // residual lands within about half an ulp. Both inputs are nonnegative.
  const double value = std::max(0.0, head + (exact - util::exact_rational(head)).to_double());
  return {value, util::round_up((exact - util::exact_rational(value)).abs())};
}

CertifiedValue positive_sum(std::uint32_t n, const SymInputs& in,
                            const util::RunControl& control) {
  const double value = symmetric_threshold_sum(n, in.beta.value, in.t.value, control);
  const double bound = symmetric_threshold_sum_bound(n, in.beta.value, in.t.value, value,
                                                     in.beta.gap, in.t.gap);
  if (!std::isfinite(value) || !std::isfinite(bound)) {
    throw NumericError(std::string(kSymLabel) +
                       ": double tier produced a non-finite value or bound");
  }
  return CertifiedValue::centred(value, bound);
}

void require_unit_beta(const Rational& beta) {
  // den > 0, so beta <= 1 exactly when num <= den.
  if (beta.signum() < 0 || beta.num() > beta.den()) {
    throw std::invalid_argument(std::string(kSymLabel) + ": beta outside [0, 1]");
  }
}

// round_input without its rational arithmetic when the input is exactly a
// double: the rounded value is the input itself and the gap is zero.
RoundedInput round_exact_input(const Rational& exact) {
  return util::exact_double(exact) ? RoundedInput{exact.to_double(), 0} : round_input(exact);
}

CertifiedValue exact_result(const Rational& value) {
  CertifiedValue result{point(value)};
  result.tier = EvalTier::kExact;
  result.met_tolerance = true;
  return result;
}

// P where β does not matter: 0 for t <= 0, and 1 for t >= n, since neither
// bin can then hold more than the n players.
std::optional<Rational> settled_value(std::uint32_t n, const Rational& t) {
  if (t.signum() <= 0) return Rational{0};
  if (t >= Rational{n}) return Rational{1};
  return std::nullopt;
}

// The symmetric ladder on one point: tier 0 on the rounded inputs, then the
// exact integer sum at exact_beta(). Both rungs poll policy.control once per
// outer term.
template <class ExactBeta>
CertifiedValue climb(std::uint32_t n, const Rational& t, const EvalPolicy& policy,
                     const SymInputs& inputs, ExactBeta exact_beta) {
  const auto positive = [&]() { return positive_sum(n, inputs, policy.control); };
  const auto exact = [&]() -> CertifiedValue {
    return point(symmetric_threshold_winning_probability(n, exact_beta(), t, policy.control));
  };
  // Both rungs capture one reference, so neither std::function allocates.
  const TierSpec tiers[] = {
      {EvalTier::kCompensatedDouble, [&positive] { return positive(); }},
      {EvalTier::kExact, [&exact] { return exact(); }},
  };
  return run_escalation_ladder(policy, kSymLabel, tiers);
}

// ---------------------------------------------------------------------------
// General Theorem 5.1, tier 0: the Gray-code double kernel of
// core/nonoblivious.cpp with running error bounds. The compensated running
// base carries the Neumaier bound 2u·Σ|increments|.
Tracked gen_zeros_bracket_t0(std::span<const double> a, std::span<const std::size_t> zeros,
                             double t) {
  const std::size_t m = zeros.size();
  if (m == 0) return {1.0, 0.0};
  const auto mm = static_cast<std::uint32_t>(m);
  KahanSum remainder{t};
  double abs_inc = std::abs(t);
  KahanSum sum{combinat::pow_uint(t, mm)};
  double abs_sum = sum.get();
  double err = pow_mults(mm) * kU * abs_sum;
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    remainder.add((mask & bit) ? -a[zeros[j]] : a[zeros[j]]);
    abs_inc += std::abs(a[zeros[j]]);
    const double err_base = 2.0 * kU * abs_inc;
    const double rem = remainder.get();
    if (rem <= err_base) {
      if (rem > -err_base) err += combinat::pow_uint(std::abs(rem) + err_base, mm);
      continue;
    }
    const double p1 = combinat::pow_uint(rem, mm - 1);
    const double term = p1 * rem;
    err += static_cast<double>(m) * p1 * err_base + (pow_mults(mm) + 1.0) * kU * term;
    sum.add(combinat::gray_parity_odd(i) ? -term : term);
    abs_sum += term;
  }
  const double inv = combinat::inverse_factorial_double(mm);
  const double value = sum.get() * inv;
  return {value, inv * (err + 2.0 * kU * abs_sum) + 2.0 * kU * std::abs(value)};
}

Tracked gen_ones_bracket_t0(std::span<const double> a, std::span<const std::size_t> ones,
                            double t) {
  const std::size_t k = ones.size();
  if (k == 0) return {1.0, 0.0};
  const auto kk = static_cast<std::uint32_t>(k);
  double product = 1.0;
  for (const std::size_t idx : ones) product *= 1.0 - a[idx];
  // Factors lie in [0, 1], so the absolute error of the product is at most
  // 2k·u (one rounding per subtraction and per multiplication).
  const double err_product = 2.0 * static_cast<double>(k) * kU;
  KahanSum base{static_cast<double>(k) - t};
  double abs_inc = static_cast<double>(k) + std::abs(t);
  KahanSum sum;
  double abs_sum = 0.0;
  double err = 0.0;
  {
    const double b0 = base.get();
    const double err_b0 = kU * std::abs(b0);
    if (b0 > err_b0) {
      const double term0 = combinat::pow_uint(b0, kk);
      sum.add(term0);
      abs_sum += term0;
      err += static_cast<double>(k) * combinat::pow_uint(b0, kk - 1) * err_b0 +
             pow_mults(kk) * kU * term0;
    } else if (b0 > -err_b0) {
      err += combinat::pow_uint(std::abs(b0) + err_b0, kk);
    }
  }
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << k;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    base.add((mask & bit) ? a[ones[j]] - 1.0 : 1.0 - a[ones[j]]);
    abs_inc += 1.0;  // |a_l − 1| <= 1
    const double err_base = 2.0 * kU * abs_inc;
    const double b = base.get();
    if (b <= err_base) {
      if (b > -err_base) err += combinat::pow_uint(std::abs(b) + err_base, kk);
      continue;
    }
    const double p1 = combinat::pow_uint(b, kk - 1);
    const double term = p1 * b;
    err += static_cast<double>(k) * p1 * err_base + (pow_mults(kk) + 1.0) * kU * term;
    sum.add(combinat::gray_parity_odd(i) ? -term : term);
    abs_sum += term;
  }
  const double inv = combinat::inverse_factorial_double(kk);
  const double tail = sum.get() * inv;
  const double value = product - tail;
  return {value, err_product + inv * (err + 2.0 * kU * abs_sum) + 2.0 * kU * std::abs(tail) +
                     kU * std::abs(value)};
}

Tracked gen_total_t0(std::span<const double> a, double t) {
  const std::size_t n = a.size();
  DDM_SPAN("kernel.gray_tracked", {{"n", static_cast<std::int64_t>(n)}});
  KahanSum total;
  double abs_total = 0.0;
  double err = 0.0;
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> ones;
  zeros.reserve(n);
  ones.reserve(n);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    zeros.clear();
    ones.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        ones.push_back(i);
      } else {
        zeros.push_back(i);
      }
    }
    const Tracked zb = gen_zeros_bracket_t0(a, zeros, t);
    const Tracked ob = gen_ones_bracket_t0(a, ones, t);
    const double product = zb.value * ob.value;
    total.add(product);
    abs_total += std::abs(product);
    err += std::abs(zb.value) * ob.error + std::abs(ob.value) * zb.error + zb.error * ob.error +
           kU * std::abs(product);
  }
  return {total.get(), err + 2.0 * kU * abs_total};
}

bool all_representable(std::span<const Rational> values) {
  for (const Rational& v : values) {
    if (!util::representable_as_double(v)) return false;
  }
  return true;
}

}  // namespace

CertifiedValue certified_threshold_winning_probability(std::span<const Rational> a,
                                                       const Rational& t,
                                                       const EvalPolicy& policy) {
  if (a.empty()) {
    throw std::invalid_argument("certified_threshold_winning_probability: need >= 1 player");
  }
  if (a.size() > 20) {
    throw std::invalid_argument("certified_threshold_winning_probability: n too large for 3^n sum");
  }
  for (const Rational& x : a) {
    if (x < Rational{0} || x > Rational{1}) {
      throw std::invalid_argument(
          "certified_threshold_winning_probability: thresholds must lie in [0, 1]");
    }
  }
  if (t.signum() <= 0) return exact_result(Rational{0});

  const TierSpec tiers[] = {
      {EvalTier::kCompensatedDouble,
       [&]() -> CertifiedValue {
         if (!all_representable(a) || !util::representable_as_double(t)) {
           throw NumericError(
               "certified_threshold_winning_probability: inputs not representable as doubles");
         }
         std::vector<double> ad(a.size());
         for (std::size_t i = 0; i < a.size(); ++i) ad[i] = a[i].to_double();
         return util::tracked_enclosure(gen_total_t0(ad, t.to_double()),
                                  "certified_threshold_winning_probability");
       }},
      {EvalTier::kExact,
       [&]() -> RationalInterval {
         if (a.size() > 16) {
           throw NumericError(
               "certified_threshold_winning_probability: exact tier limited to n <= 16");
         }
         return point(threshold_winning_probability(a, t));
       }},
  };
  return run_escalation_ladder(policy, "certified_threshold_winning_probability", tiers);
}

CertifiedValue certified_symmetric_threshold_winning_probability(std::uint32_t n,
                                                                 const Rational& beta,
                                                                 const Rational& t,
                                                                 const EvalPolicy& policy) {
  return SymmetricCertifier(n, t, policy).evaluate(beta);
}

SymmetricCertifier::SymmetricCertifier(std::uint32_t n, Rational t, EvalPolicy policy)
    : n_(n), t_(std::move(t)), policy_(std::move(policy)), settled_(settled_value(n_, t_)) {
  if (n_ == 0) throw std::invalid_argument(std::string(kSymLabel) + ": n == 0");
  if (!settled_.has_value()) {
    const RoundedInput rounded = round_exact_input(t_);
    t_value_ = rounded.value;
    t_gap_ = rounded.gap;
  }
}

double SymmetricCertifier::tier0_worst_bound() const {
  if (settled_.has_value()) return 0.0;
  return symmetric_threshold_sum_worst_bound(n_, t_value_, t_gap_);
}

CertifiedValue SymmetricCertifier::evaluate(const Rational& beta) const {
  require_unit_beta(beta);
  if (settled_.has_value()) return exact_result(*settled_);
  const SymInputs inputs{round_exact_input(beta), {t_value_, t_gap_}};
  return climb(n_, t_, policy_, inputs, [&beta] { return beta; });
}

CertifiedValue SymmetricCertifier::evaluate(double beta) const {
  // Zero, and every double in [2^-846, 1], converts to a rational whose
  // denominator has fewer than 900 bits, so util::exact_double holds for it
  // and tier 0 takes it with no rounding gap. Anything else — tiny, out of
  // range, or non-finite — goes through the rational path and its checks.
  if (!(beta == 0.0 || (beta >= 0x1p-846 && beta <= 1.0)) || settled_.has_value()) {
    return evaluate(util::exact_rational(beta));
  }
  const SymInputs inputs{{beta, 0}, {t_value_, t_gap_}};
  return climb(n_, t_, policy_, inputs, [beta] { return util::exact_rational(beta); });
}

CertifiedValue SymmetricCertifier::evaluate_on_ladder(const Rational& beta) const {
  require_unit_beta(beta);
  if (settled_.has_value()) return exact_result(*settled_);
  const SymInputs inputs{round_input(beta), round_input(t_)};
  return climb(n_, t_, policy_, inputs, [&beta] { return beta; });
}

}  // namespace ddm::core
