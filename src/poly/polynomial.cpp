#include "poly/polynomial.hpp"

#include <algorithm>
#include <sstream>

#include "combinat/binomial.hpp"

namespace ddm::poly {

namespace {

// Render one coefficient for to_string; handles Rational and double.
std::string coeff_to_text(const util::Rational& c) { return c.to_string(); }
std::string coeff_to_text(double c) {
  std::ostringstream oss;
  oss << c;
  return oss.str();
}

bool coeff_is_negative(const util::Rational& c) { return c.signum() < 0; }
bool coeff_is_negative(double c) { return c < 0.0; }

template <typename F>
F coeff_abs(const F& c) {
  return coeff_is_negative(c) ? -c : c;
}

bool coeff_is_one(const util::Rational& c) { return c == util::Rational{1}; }
bool coeff_is_one(double c) { return c == 1.0; }

}  // namespace

template <typename F>
std::string Polynomial<F>::to_string(const std::string& var) const {
  if (is_zero()) return "0";
  std::ostringstream oss;
  bool first = true;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    const F& c = coeffs_[i];
    if (c == F{}) continue;
    const bool negative = coeff_is_negative(c);
    if (first) {
      if (negative) oss << "-";
      first = false;
    } else {
      oss << (negative ? " - " : " + ");
    }
    const F magnitude = coeff_abs(c);
    const bool unit = coeff_is_one(magnitude);
    if (i == 0) {
      oss << coeff_to_text(magnitude);
    } else {
      if (!unit) oss << coeff_to_text(magnitude) << "*";
      oss << var;
      if (i > 1) oss << "^" << i;
    }
  }
  return oss.str();
}

DPoly to_double(const QPoly& p) {
  std::vector<double> coeffs;
  coeffs.reserve(p.coefficients().size());
  for (const auto& c : p.coefficients()) coeffs.push_back(c.to_double());
  return DPoly{std::move(coeffs)};
}

QPoly binomial_power(const util::Rational& a, const util::Rational& b, std::uint32_t k) {
  // (a + b x)^k = sum_j C(k, j) a^(k-j) b^j x^j
  std::vector<util::Rational> coeffs(k + 1);
  for (std::uint32_t j = 0; j <= k; ++j) {
    const util::Rational binom{combinat::binomial(k, j), util::BigInt{1}};
    coeffs[j] = binom * a.pow(static_cast<std::int64_t>(k - j)) *
                b.pow(static_cast<std::int64_t>(j));
  }
  return QPoly{std::move(coeffs)};
}

ZPoly binomial_power(const util::BigInt& a, const util::BigInt& b, std::uint32_t k) {
  std::vector<util::BigInt> a_powers(k + 1);
  a_powers[0] = util::BigInt{1};
  for (std::uint32_t j = 1; j <= k; ++j) a_powers[j] = a_powers[j - 1] * a;
  std::vector<util::BigInt> coeffs(k + 1);
  util::BigInt b_power{1};
  for (std::uint32_t j = 0; j <= k; ++j) {
    coeffs[j] = combinat::binomial(k, j) * a_powers[k - j] * b_power;
    b_power *= b;
  }
  return ZPoly{std::move(coeffs)};
}

ZPoly clear_denominators(const QPoly& p, util::BigInt* den) {
  util::BigInt lcm{1};
  for (const util::Rational& c : p.coefficients()) {
    lcm *= c.den() / util::BigInt::gcd(lcm, c.den());
  }
  std::vector<util::BigInt> coeffs;
  coeffs.reserve(p.coefficients().size());
  for (const util::Rational& c : p.coefficients()) coeffs.push_back(c.num() * (lcm / c.den()));
  if (den != nullptr) *den = lcm;
  return ZPoly{std::move(coeffs)};
}

namespace {

// b^d · p(a/b) = Σ c_i a^i b^(d−i), d = deg p, by Horner in integers.
util::BigInt homogeneous_value(const ZPoly& p, const util::BigInt& a, const util::BigInt& b) {
  const auto& coeffs = p.coefficients();
  if (coeffs.empty()) return util::BigInt{};
  util::BigInt result = coeffs.back();
  util::BigInt b_power{1};
  for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
    b_power *= b;
    result *= a;
    if (!coeffs[i].is_zero()) result += coeffs[i] * b_power;
  }
  return result;
}

}  // namespace

int sign_at(const ZPoly& p, const util::BigInt& a, const util::BigInt& b) {
  return homogeneous_value(p, a, b).signum();
}

int sign_at(const ZPoly& p, const util::Rational& x) { return sign_at(p, x.num(), x.den()); }

util::Rational evaluate(const ZPoly& p, const util::BigInt& den, const util::Rational& x) {
  const int degree = std::max(p.degree(), 0);
  return util::Rational{homogeneous_value(p, x.num(), x.den()),
                        den * util::BigInt::pow(x.den(), static_cast<std::uint64_t>(degree))};
}

util::RationalInterval evaluate_interval(const QPoly& p, const util::RationalInterval& x) {
  util::RationalInterval result{util::Rational{0}};
  const auto& coeffs = p.coefficients();
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    result = result * x + util::RationalInterval{coeffs[i]};
  }
  return result;
}

template class Polynomial<util::Rational>;
template class Polynomial<double>;

}  // namespace ddm::poly
