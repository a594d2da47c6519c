#include "poly/bernstein.hpp"

#include <algorithm>

#include "combinat/binomial.hpp"

namespace ddm::poly {

using util::BigInt;
using util::Rational;

Rational BernsteinForm::upper_bound() const {
  return Rational{*std::max_element(coeffs.begin(), coeffs.end()), scale};
}

BernsteinForm to_bernstein(const ZPoly& p, const Rational& lo, const Rational& hi) {
  const auto& c = p.coefficients();
  if (c.empty()) return BernsteinForm{{BigInt{}}, BigInt{1}};
  const std::size_t d = c.size() - 1;
  // lo = l/q and hi = (l + w)/q over one denominator q.
  const BigInt q = lo.den() / BigInt::gcd(lo.den(), hi.den()) * hi.den();
  const BigInt l = lo.num() * (q / lo.den());
  const BigInt w = hi.num() * (q / hi.den()) - l;

  // r(u) = q^d p(lo + (hi − lo)u) = Σ c_i q^(d−i) (l + w u)^i, by Horner in u.
  std::vector<BigInt> r{c[d]};
  BigInt q_power{1};
  for (std::size_t i = d; i-- > 0;) {
    q_power *= q;
    r.emplace_back();
    for (std::size_t j = r.size() - 1; j > 0; --j) r[j] = r[j] * l + r[j - 1] * w;
    r[0] *= l;
    if (!c[i].is_zero()) r[0] += c[i] * q_power;
  }

  // β_j = Σ_{i≤j} C(d−i, j−i) r_i = C(d,j) b_j are the coefficients of
  // Σ_i r_i v^i (1+v)^(d−i): r reversed, Taylor-shifted by one (additions
  // only), and reversed back.
  std::reverse(r.begin(), r.end());
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = d; j-- > i;) r[j] += r[j + 1];
  }
  std::reverse(r.begin(), r.end());

  // b_j = β_j / C(d,j): scale every β_j to the common denominator
  // m = lcm_j C(d,j) so the coefficients stay integers.
  std::vector<BigInt> binomials(d + 1);
  BigInt m{1};
  for (std::size_t j = 0; j <= d; ++j) {
    binomials[j] = combinat::binomial(static_cast<std::uint32_t>(d), static_cast<std::uint32_t>(j));
    m *= binomials[j] / BigInt::gcd(m, binomials[j]);
  }
  for (std::size_t j = 0; j <= d; ++j) r[j] *= m / binomials[j];
  return BernsteinForm{std::move(r), m * q_power};
}

}  // namespace ddm::poly
