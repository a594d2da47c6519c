#include "core/oblivious.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "combinat/binomial.hpp"
#include "prob/uniform_sum.hpp"

namespace ddm::core {

using util::Rational;

namespace {

void check_alpha(std::span<const Rational> alpha) {
  if (alpha.empty()) throw std::invalid_argument("oblivious: need >= 1 player");
  for (const Rational& a : alpha) {
    if (a < Rational{0} || a > Rational{1}) {
      throw std::invalid_argument("oblivious: alpha entries must lie in [0, 1]");
    }
  }
}

// F_0(t), ..., F_n(t): one Irwin–Hall row gives every phi_double(n, k, t)
// as row[k] · row[n − k], bit for bit.
std::vector<double> irwin_hall_row_at(std::uint32_t n, double t) {
  std::vector<double> row(std::size_t{n} + 1);
  std::vector<double> scratch(std::size_t{n} + 1);
  prob::irwin_hall_row(n, t, row, scratch);
  return row;
}

}  // namespace

Rational phi(std::uint32_t n, std::uint32_t k, const Rational& t) {
  if (k > n) throw std::invalid_argument("phi: k > n");
  return prob::irwin_hall_cdf(k, t) * prob::irwin_hall_cdf(n - k, t);
}

double phi_double(std::uint32_t n, std::uint32_t k, double t) {
  if (k > n) throw std::invalid_argument("phi_double: k > n");
  return prob::irwin_hall_cdf(k, t) * prob::irwin_hall_cdf(n - k, t);
}

std::vector<Rational> ones_count_distribution(std::span<const Rational> alpha) {
  check_alpha(alpha);
  // DP over players; pmf[k] = P(k ones so far). Player i contributes a one
  // (bin 1) with probability 1 − α_i.
  std::vector<Rational> pmf{Rational{1}};
  for (const Rational& a : alpha) {
    const Rational p_one = Rational{1} - a;
    std::vector<Rational> next(pmf.size() + 1, Rational{0});
    for (std::size_t k = 0; k < pmf.size(); ++k) {
      next[k] += pmf[k] * a;
      next[k + 1] += pmf[k] * p_one;
    }
    pmf = std::move(next);
  }
  return pmf;
}

Rational oblivious_winning_probability(std::span<const Rational> alpha, const Rational& t) {
  check_alpha(alpha);
  if (t.signum() <= 0) return Rational{0};
  const auto n = static_cast<std::uint32_t>(alpha.size());
  const std::vector<Rational> pmf = ones_count_distribution(alpha);
  Rational total{0};
  for (std::uint32_t k = 0; k <= n; ++k) {
    if (pmf[k].is_zero()) continue;
    total += phi(n, k, t) * pmf[k];
  }
  return total;
}

Rational oblivious_winning_probability_bruteforce(std::span<const Rational> alpha,
                                                  const Rational& t) {
  check_alpha(alpha);
  const std::size_t n = alpha.size();
  if (n > 25) {
    throw std::invalid_argument("oblivious_winning_probability_bruteforce: n too large");
  }
  if (t.signum() <= 0) return Rational{0};
  Rational total{0};
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    Rational weight{1};
    std::uint32_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        weight *= Rational{1} - alpha[i];
        ++ones;
      } else {
        weight *= alpha[i];
      }
    }
    if (weight.is_zero()) continue;
    total += phi(static_cast<std::uint32_t>(n), ones, t) * weight;
  }
  return total;
}

double oblivious_winning_probability(std::span<const double> alpha, double t) {
  if (alpha.empty()) throw std::invalid_argument("oblivious: need >= 1 player");
  if (t <= 0.0) return 0.0;
  const auto n = static_cast<std::uint32_t>(alpha.size());
  std::vector<double> pmf{1.0};
  for (const double a : alpha) {
    if (a < 0.0 || a > 1.0) throw std::invalid_argument("oblivious: alpha must lie in [0, 1]");
    std::vector<double> next(pmf.size() + 1, 0.0);
    for (std::size_t k = 0; k < pmf.size(); ++k) {
      next[k] += pmf[k] * a;
      next[k + 1] += pmf[k] * (1.0 - a);
    }
    pmf = std::move(next);
  }
  const std::vector<double> row = irwin_hall_row_at(n, t);
  double total = 0.0;
  for (std::uint32_t k = 0; k <= n; ++k) total += row[k] * row[n - k] * pmf[k];
  return total;
}

poly::MultilinearPolynomial oblivious_winning_polynomial(std::uint32_t n, const Rational& t) {
  if (n == 0 || n > 12) {
    throw std::invalid_argument("oblivious_winning_polynomial: need 1 <= n <= 12");
  }
  poly::MultilinearPolynomial total{n};
  if (t.signum() <= 0) return total;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    const auto ones = static_cast<std::uint32_t>(__builtin_popcountll(b));
    poly::MultilinearPolynomial product =
        poly::MultilinearPolynomial::constant(n, phi(n, ones, t));
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool bit = (b & (std::uint64_t{1} << i)) != 0;
      product = product.disjoint_product(
          bit ? poly::MultilinearPolynomial::one_minus_variable(n, i)
              : poly::MultilinearPolynomial::variable(n, i));
    }
    total += product;
  }
  return total;
}

Rational optimal_oblivious_winning_probability(std::uint32_t n, const Rational& t) {
  if (n == 0) throw std::invalid_argument("optimal_oblivious_winning_probability: n == 0");
  if (t.signum() <= 0) return Rational{0};
  Rational total{0};
  for (std::uint32_t k = 0; k <= n; ++k) {
    total += Rational{combinat::binomial(n, k), util::BigInt{1}} * phi(n, k, t);
  }
  return total * Rational{1, 2}.pow(n);
}

double optimal_oblivious_winning_probability_double(std::uint32_t n, double t) {
  if (n == 0) throw std::invalid_argument("optimal_oblivious_winning_probability: n == 0");
  if (t <= 0.0) return 0.0;
  const std::vector<double> row = irwin_hall_row_at(n, t);
  double total = 0.0;
  for (std::uint32_t k = 0; k <= n; ++k) {
    total += combinat::binomial_double(n, k) * (row[k] * row[n - k]);
  }
  return total * std::pow(0.5, static_cast<double>(n));
}

}  // namespace ddm::core
