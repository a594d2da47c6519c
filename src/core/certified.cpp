#include "core/certified.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
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
// Symmetric Theorem 5.1, tier 0: the O(n²) evaluator of core/nonoblivious.cpp
// in long double with a running error bound alongside every operation. The
// indicator base > 0 is decided in rounded arithmetic; when the rounded base
// lies within its own error bound of zero the true indicator is unknown, so
// the possibly-present term is added to the error instead of the sum.
//
// The inputs need not be representable: β and t are rounded to long double
// and each rounding gap, computed exactly from the rationals, is charged to
// every quantity that uses it — |t − t̃| + l·|β − β̃| to each bracket base,
// k·|β − β̃| to the (1 − β)^k lead (both factors lie in [0, 1]).
using Real = long double;

// Unit roundoff of long double. epsilon()/2 keeps the bound honest where
// long double is plain double.
constexpr Real kUR = std::numeric_limits<Real>::epsilon() / 2;

constexpr const char* kSymLabel = "certified_symmetric_threshold_winning_probability";

// Largest n whose binomial row is exact in 64-bit integers:
// C(67, 33) < 2^64 <= C(68, 34).
constexpr std::uint32_t kSymTier0MaxN = 67;

struct TrackedReal {
  Real value = 0;
  Real error = 0;
};

// An input rounded to Real, with an upper bound on |exact − value|.
struct RoundedInput {
  Real value = 0;
  Real gap = 0;
};

struct SymInputs {
  RoundedInput beta;
  RoundedInput t;
};

// Binomials (exact integers, converted once) and 1/m! (by repeated division,
// so within a relative m·u of the truth) for m <= kSymTier0MaxN.
class SymTables {
 public:
  static const SymTables& get() {
    static const SymTables tables;
    return tables;
  }

  [[nodiscard]] Real binomial(std::uint32_t n, std::uint32_t k) const { return binom_[row(n) + k]; }
  [[nodiscard]] Real inverse_factorial(std::uint32_t m) const { return inv_fact_[m]; }

 private:
  SymTables() : binom_(row(kSymTier0MaxN + 1)), inv_fact_(kSymTier0MaxN + 1) {
    std::vector<std::uint64_t> previous{1};
    for (std::uint32_t n = 0; n <= kSymTier0MaxN; ++n) {
      std::vector<std::uint64_t> current(n + 1, 1);
      for (std::uint32_t k = 1; k < n; ++k) current[k] = previous[k - 1] + previous[k];
      for (std::uint32_t k = 0; k <= n; ++k) binom_[row(n) + k] = static_cast<Real>(current[k]);
      previous = std::move(current);
    }
    inv_fact_[0] = 1;
    for (std::uint32_t m = 1; m <= kSymTier0MaxN; ++m) {
      inv_fact_[m] = inv_fact_[m - 1] / static_cast<Real>(m);
    }
  }

  static std::size_t row(std::uint32_t n) { return std::size_t{n} * (n + 1) / 2; }

  std::vector<Real> binom_;
  std::vector<Real> inv_fact_;
};

Real pow_real(Real base, std::uint32_t exp) {
  Real result = 1;
  while (exp != 0) {
    if (exp & 1u) result *= base;
    base *= base;
    exp >>= 1;
  }
  return result;
}

RoundedInput round_input(const Rational& exact) {
  const double head = exact.to_double();
  const double tail = (exact - util::exact_rational(head)).to_double();
  const Real value = static_cast<Real>(head) + static_cast<Real>(tail);
  // A long double splits exactly into a double and a short remainder, so the
  // gap below is the exact distance, rounded up once.
  const double value_head = static_cast<double>(value);
  const double value_tail = static_cast<double>(value - static_cast<Real>(value_head));
  const Rational gap =
      (exact - util::exact_rational(value_head) - util::exact_rational(value_tail)).abs();
  return {value, static_cast<Real>(util::round_up(gap))};
}

// Bound on |(b ± e)^m − b^m| for b > 0: m·e·(b + e)^(m−1) by the mean
// value theorem.
Real pow_perturbation(Real base, Real err_base, std::uint32_t m) {
  return static_cast<Real>(m) * pow_real(base + err_base, m - 1) * err_base;
}

TrackedReal sym_zero_bracket_t0(std::uint32_t m, const SymInputs& in) {
  if (m == 0) return {1, 0};
  const SymTables& tables = SymTables::get();
  util::BasicKahanSum<Real> sum;
  Real abs_sum = 0;
  Real err = 0;
  for (std::uint32_t l = 0; l <= m; ++l) {
    const Real lb = static_cast<Real>(l) * in.beta.value;
    const Real base = in.t.value - lb;
    const Real err_base = kUR * (std::abs(lb) + std::abs(base)) + in.t.gap +
                          static_cast<Real>(l) * in.beta.gap;
    const Real binom = tables.binomial(m, l);
    if (base <= err_base) {
      if (base > -err_base) err += binom * pow_real(std::abs(base) + err_base, m);
      continue;
    }
    const Real term = binom * pow_real(base, m - 1) * base;
    // pow_mults(m) + 3: the power, the binomial's conversion, two products.
    err += binom * pow_perturbation(base, err_base, m) + (pow_mults(m) + 3) * kUR * term;
    sum.add(l % 2 == 0 ? term : -term);
    abs_sum += term;
  }
  const Real value = sum.get() * tables.inverse_factorial(m);
  return {value, tables.inverse_factorial(m) * (err + 2 * kUR * abs_sum) +
                     static_cast<Real>(m + 1) * kUR * std::abs(value)};
}

TrackedReal sym_one_bracket_t0(std::uint32_t k, const SymInputs& in) {
  if (k == 0) return {1, 0};
  const SymTables& tables = SymTables::get();
  const Real lead = pow_real(1 - in.beta.value, k);
  const Real err_lead = (static_cast<Real>(k) + pow_mults(k)) * kUR * lead +
                        static_cast<Real>(k) * in.beta.gap;
  const Real x1 = static_cast<Real>(k) - in.t.value;
  util::BasicKahanSum<Real> sum;
  Real abs_sum = 0;
  Real err = 0;
  for (std::uint32_t l = 0; l <= k; ++l) {
    const Real x2 = x1 - static_cast<Real>(l);
    const Real lb = static_cast<Real>(l) * in.beta.value;
    const Real base = x2 + lb;
    const Real err_base =
        kUR * (std::abs(x1) + std::abs(x2) + 2 * std::abs(lb) + std::abs(base)) + in.t.gap +
        static_cast<Real>(l) * in.beta.gap;
    const Real binom = tables.binomial(k, l);
    if (base <= err_base) {
      if (base > -err_base) err += binom * pow_real(std::abs(base) + err_base, k);
      continue;
    }
    const Real term = binom * pow_real(base, k - 1) * base;
    err += binom * pow_perturbation(base, err_base, k) + (pow_mults(k) + 3) * kUR * term;
    sum.add(l % 2 == 0 ? term : -term);
    abs_sum += term;
  }
  const Real tail = sum.get() * tables.inverse_factorial(k);
  const Real value = lead - tail;
  return {value, err_lead + tables.inverse_factorial(k) * (err + 2 * kUR * abs_sum) +
                     static_cast<Real>(k + 1) * kUR * std::abs(tail) + kUR * std::abs(value)};
}

TrackedReal sym_total_t0(std::uint32_t n, const SymInputs& in) {
  DDM_SPAN("kernel.sym_tracked", {{"n", static_cast<std::int64_t>(n)}});
  const SymTables& tables = SymTables::get();
  util::BasicKahanSum<Real> total;
  Real abs_total = 0;
  Real err = 0;
  for (std::uint32_t k = 0; k <= n; ++k) {
    const TrackedReal zb = sym_zero_bracket_t0(n - k, in);
    const TrackedReal ob = sym_one_bracket_t0(k, in);
    const Real binom = tables.binomial(n, k);
    const Real product = binom * zb.value * ob.value;
    total.add(product);
    abs_total += std::abs(product);
    err += binom * (std::abs(zb.value) * ob.error + std::abs(ob.value) * zb.error +
                    zb.error * ob.error + 3 * kUR * std::abs(zb.value * ob.value));
  }
  return {total.get(), err + 2 * kUR * abs_total};
}

// Rounds the centre to double and adds that shift to the bound, rounded up
// (a non-finite value or bound stays non-finite, which tracked_enclosure
// turns into the escalation signal).
Tracked to_tracked_double(const TrackedReal& tracked) {
  const double centre = static_cast<double>(tracked.value);
  const Real shift = std::abs(tracked.value - static_cast<Real>(centre));
  const double error = static_cast<double>(tracked.error + shift);
  return {centre, std::nextafter(error, std::numeric_limits<double>::infinity())};
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

CertifiedValue exact_zero() {
  CertifiedValue zero{point(Rational{0})};
  zero.tier = EvalTier::kExact;
  zero.met_tolerance = true;
  return zero;
}

// The symmetric ladder on one point: tier 0 on the rounded inputs, then the
// exact rational sum at exact_beta(). No interval rung: in O(n²) the exact
// rung is cheaper than 320-bit intervals at every n measured
// (docs/robustness.md), so a tier-0 miss escalates straight to it.
template <class ExactBeta>
CertifiedValue climb(std::uint32_t n, const Rational& t, const EvalPolicy& policy,
                     const SymInputs& inputs, ExactBeta exact_beta) {
  const auto exact = [&]() -> CertifiedValue {
    return point(symmetric_threshold_winning_probability(n, exact_beta(), t, policy.control));
  };
  // Both rungs capture at most 16 bytes, so neither std::function allocates.
  const TierSpec tiers[] = {
      {EvalTier::kCompensatedDouble,
       [n, &inputs]() -> CertifiedValue {
         if (n > kSymTier0MaxN) {
           throw NumericError(std::string(kSymLabel) + ": double tier limited to n <= " +
                              std::to_string(kSymTier0MaxN));
         }
         return util::tracked_enclosure(to_tracked_double(sym_total_t0(n, inputs)), kSymLabel);
       }},
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

// ---------------------------------------------------------------------------
// General Theorem 5.1, tier 1: Gray-code walk with an *exact* rational
// running base (so every feasibility indicator is decided exactly) and
// dyadic-interval term accumulation.
RationalInterval gen_zeros_bracket_i(std::span<const Rational> a,
                                     std::span<const std::size_t> zeros, const Rational& t,
                                     unsigned bits) {
  const std::size_t m = zeros.size();
  if (m == 0) return point(Rational{1});
  const auto mm = static_cast<std::uint32_t>(m);
  Rational remainder = t;
  RationalInterval sum = pow_outward(point(t), mm, bits);  // I = ∅ (t > 0)
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      remainder -= a[zeros[j]];
    } else {
      remainder += a[zeros[j]];
    }
    if (remainder.signum() <= 0) continue;
    const RationalInterval term = pow_outward(point(remainder), mm, bits);
    sum = outward_round(combinat::gray_parity_odd(i) ? sum - term : sum + term, bits);
  }
  return outward_round(sum * point(combinat::inverse_factorial(mm)), bits);
}

RationalInterval gen_ones_bracket_i(std::span<const Rational> a,
                                    std::span<const std::size_t> ones, const Rational& t,
                                    unsigned bits) {
  const std::size_t k = ones.size();
  if (k == 0) return point(Rational{1});
  const auto kk = static_cast<std::uint32_t>(k);
  Rational product{1};
  std::vector<Rational> shifted(k);
  for (std::size_t j = 0; j < k; ++j) {
    product *= Rational{1} - a[ones[j]];
    shifted[j] = a[ones[j]] - Rational{1};
  }
  Rational base = Rational{static_cast<std::int64_t>(k)} - t;
  RationalInterval sum{Rational{0}};
  if (base.signum() > 0) sum = pow_outward(point(base), kk, bits);
  std::uint64_t mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << k;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      base += shifted[j];
    } else {
      base -= shifted[j];
    }
    if (base.signum() <= 0) continue;
    const RationalInterval term = pow_outward(point(base), kk, bits);
    sum = outward_round(combinat::gray_parity_odd(i) ? sum - term : sum + term, bits);
  }
  return outward_round(point(product) -
                           outward_round(sum * point(combinat::inverse_factorial(kk)), bits),
                       bits);
}

RationalInterval gen_total_i(std::span<const Rational> a, const Rational& t, unsigned bits) {
  const std::size_t n = a.size();
  DDM_SPAN("kernel.gray_interval", {{"n", static_cast<std::int64_t>(n)}});
  RationalInterval total{Rational{0}};
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
    const RationalInterval product = outward_round(
        gen_zeros_bracket_i(a, zeros, t, bits) * gen_ones_bracket_i(a, ones, t, bits), bits);
    total = outward_round(total + product, bits);
  }
  return total;
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
  if (t.signum() <= 0) return exact_zero();

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
      {EvalTier::kInterval,
       [&]() -> RationalInterval { return gen_total_i(a, t, policy.interval_bits); }},
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
    : n_(n), t_(std::move(t)), policy_(std::move(policy)) {
  if (n_ == 0) throw std::invalid_argument(std::string(kSymLabel) + ": n == 0");
  if (t_.signum() > 0) {
    const RoundedInput rounded = round_exact_input(t_);
    t_value_ = rounded.value;
    t_gap_ = rounded.gap;
  }
}

CertifiedValue SymmetricCertifier::evaluate(const Rational& beta) const {
  require_unit_beta(beta);
  if (t_.signum() <= 0) return exact_zero();
  const SymInputs inputs{round_exact_input(beta), {t_value_, t_gap_}};
  return climb(n_, t_, policy_, inputs, [&beta] { return beta; });
}

CertifiedValue SymmetricCertifier::evaluate(double beta) const {
  // Zero, and every double in [2^-846, 1], converts to a rational whose
  // denominator has fewer than 900 bits, so util::exact_double holds for it
  // and tier 0 takes it with no rounding gap. Anything else — tiny, out of
  // range, or non-finite — goes through the rational path and its checks.
  if (!(beta == 0.0 || (beta >= 0x1p-846 && beta <= 1.0)) || t_.signum() <= 0) {
    return evaluate(util::exact_rational(beta));
  }
  const SymInputs inputs{{beta, 0}, {t_value_, t_gap_}};
  return climb(n_, t_, policy_, inputs, [beta] { return util::exact_rational(beta); });
}

CertifiedValue SymmetricCertifier::evaluate_on_ladder(const Rational& beta) const {
  require_unit_beta(beta);
  if (t_.signum() <= 0) return exact_zero();
  const SymInputs inputs{round_input(beta), round_input(t_)};
  return climb(n_, t_, policy_, inputs, [&beta] { return beta; });
}

}  // namespace ddm::core
