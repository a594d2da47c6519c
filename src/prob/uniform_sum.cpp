#include "prob/uniform_sum.hpp"

#include <algorithm>
#include <string>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "combinat/binomial.hpp"

namespace ddm::prob {

using util::Rational;

namespace {

constexpr std::size_t kMaxExactDimension = 30;

void check_pi_positive(std::span<const Rational> pi, const char* what) {
  for (const Rational& p : pi) {
    if (p.signum() <= 0) throw std::invalid_argument(std::string(what) + ": ranges must be > 0");
  }
  if (pi.size() > kMaxExactDimension) {
    throw std::invalid_argument(std::string(what) + ": too many variables for subset masks");
  }
}

}  // namespace

Rational sum_uniform_cdf(std::span<const Rational> pi, const Rational& t) {
  check_pi_positive(pi, "sum_uniform_cdf");
  if (t.signum() < 0) return Rational{0};
  const std::size_t m = pi.size();
  if (m == 0) return Rational{1};

  Rational sum{0};
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    Rational subset_sum{0};
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;  // guard Σ_{l∈I} π_l < t  (Lemma 2.4)
    const Rational term = (t - subset_sum).pow(static_cast<std::int64_t>(m));
    if (__builtin_popcountll(mask) % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  Rational denominator{1};
  for (const Rational& p : pi) denominator *= p;
  Rational result =
      sum * combinat::inverse_factorial(static_cast<std::uint32_t>(m)) / denominator;
  // The formula already saturates at 1 for t >= Σ π_l; clamp defensively for
  // exactness of the declared contract under rounding-free arithmetic.
  if (result > Rational{1}) result = Rational{1};
  return result;
}

Rational sum_uniform_pdf(std::span<const Rational> pi, const Rational& t) {
  check_pi_positive(pi, "sum_uniform_pdf");
  const std::size_t m = pi.size();
  if (m == 0) return Rational{0};
  if (t.signum() < 0) return Rational{0};

  // Lemma 2.5: same alternating sum with exponent m-1 and 1/(m-1)!.
  Rational sum{0};
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    Rational subset_sum{0};
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;
    const Rational term = (t - subset_sum).pow(static_cast<std::int64_t>(m - 1));
    if (__builtin_popcountll(mask) % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  Rational denominator{1};
  for (const Rational& p : pi) denominator *= p;
  return sum * combinat::inverse_factorial(static_cast<std::uint32_t>(m - 1)) / denominator;
}

Rational irwin_hall_cdf(std::uint32_t m, const Rational& t) {
  if (t.signum() < 0) return Rational{0};
  if (m == 0) return Rational{1};
  if (t >= Rational{static_cast<std::int64_t>(m)}) return Rational{1};

  // Corollary 2.6: (1/m!) Σ_{0<=i<=m, i<t} (-1)^i C(m,i) (t-i)^m.
  Rational sum{0};
  for (std::uint32_t i = 0; i <= m; ++i) {
    const Rational shift{static_cast<std::int64_t>(i)};
    if (shift >= t) break;  // i < t guard; later i only grow
    const Rational binom{combinat::binomial(m, i), util::BigInt{1}};
    const Rational term = binom * (t - shift).pow(static_cast<std::int64_t>(m));
    if (i % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  return sum * combinat::inverse_factorial(m);
}

Rational sum_shifted_uniform_cdf(std::span<const Rational> pi, const Rational& t) {
  const std::size_t m = pi.size();
  for (const Rational& p : pi) {
    if (p.signum() < 0 || p >= Rational{1}) {
      throw std::invalid_argument("sum_shifted_uniform_cdf: need 0 <= pi < 1");
    }
  }
  if (m > kMaxExactDimension) {
    throw std::invalid_argument("sum_shifted_uniform_cdf: too many variables");
  }
  if (m == 0) return t.signum() >= 0 ? Rational{1} : Rational{0};

  // Lemma 2.7:
  //   F(t) = 1 - (1/(m! Π(1-π_l))) Σ_I (-1)^{|I|} (m - t - |I| + Σ_{l∈I} π_l)^m
  // over subsets I with |I| < m - t + Σ_{l∈I} π_l.
  const Rational mm{static_cast<std::int64_t>(m)};
  Rational sum{0};
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    Rational subset_sum{0};
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    const int i = __builtin_popcountll(mask);
    const Rational base = mm - t - Rational{i} + subset_sum;
    if (base.signum() <= 0) continue;  // guard |I| < m - t + Σ π_l
    const Rational term = base.pow(static_cast<std::int64_t>(m));
    if (i % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  Rational denominator{1};
  for (const Rational& p : pi) denominator *= (Rational{1} - p);
  Rational result = Rational{1} -
                    sum * combinat::inverse_factorial(static_cast<std::uint32_t>(m)) / denominator;
  if (result < Rational{0}) result = Rational{0};
  if (result > Rational{1}) result = Rational{1};
  return result;
}

// -- double versions ----------------------------------------------------------

double sum_uniform_cdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_uniform_cdf: too many variables");
  if (t < 0.0) return 0.0;
  if (m == 0) return 1.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;
    const double term = std::pow(t - subset_sum, static_cast<double>(m));
    sum += (__builtin_popcountll(mask) % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= p;
  const double result =
      sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m)) / denominator;
  return std::clamp(result, 0.0, 1.0);
}

double sum_uniform_pdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_uniform_pdf: too many variables");
  if (m == 0 || t < 0.0) return 0.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;
    const double term = std::pow(t - subset_sum, static_cast<double>(m - 1));
    sum += (__builtin_popcountll(mask) % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= p;
  return sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m - 1)) /
         denominator;
}

double irwin_hall_cdf(std::uint32_t m, double t) {
  std::vector<double> scratch(std::size_t{m} + 1);
  return irwin_hall_row(m, t, {}, scratch);
}

double sum_shifted_uniform_cdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_shifted_uniform_cdf: too many variables");
  if (m == 0) return t >= 0.0 ? 1.0 : 0.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    const int i = __builtin_popcountll(mask);
    const double base = static_cast<double>(m) - t - static_cast<double>(i) + subset_sum;
    if (base <= 0.0) continue;
    const double term = std::pow(base, static_cast<double>(m));
    sum += (i % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= (1.0 - p);
  const double result =
      1.0 - sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m)) / denominator;
  return std::clamp(result, 0.0, 1.0);
}

double irwin_hall_row(std::uint32_t m, double y, std::span<double> row,
                      std::span<double> scratch) {
  const auto mm = static_cast<double>(m);
  if (!(y > 0.0) || y >= mm) {
    // Every F_j(y), j <= m, is 0 or 1 here (F_0 is the unit step at 0).
    const double step = y >= 0.0 ? 1.0 : 0.0;
    const double edge = y >= mm ? 1.0 : 0.0;
    if (!row.empty()) {
      row[0] = step;
      std::fill(row.begin() + 1, row.begin() + m + 1, edge);
    }
    return m == 0 ? step : edge;
  }
  // a[i] = F_j(y − i) at level j for the shifts i = 0..top, those with
  // y − i > 0; a[top + 1] = F_j(y − top − 1) stays 0 (F_0(0) = 1 is never
  // read: x = 1 is not below j = 1). As 0 <= i < y < m < 2^53, every
  // x = y − i is exact.
  const auto top = static_cast<std::size_t>(std::ceil(y)) - 1;
  double* a = scratch.data();
  std::fill(a, a + top + 1, 1.0);
  a[top + 1] = 0.0;
  if (!row.empty()) row[0] = 1.0;
  for (std::uint32_t j = 1; j <= m; ++j) {
    const auto jd = static_cast<double>(j);
    const double inv = 1.0 / jd;
    // Shifts with x >= j keep F_j(x) = 1; shifts past m − j never reach
    // F_m(y). In-place: a[i + 1] still holds level j − 1 when a[i] is read.
    const std::size_t lo = y >= jd ? static_cast<std::size_t>(y - jd) + 1 : 0;
    const std::size_t hi = std::min<std::size_t>(top, m - j);
    for (std::size_t i = lo; i <= hi; ++i) {
      const double x = y - static_cast<double>(i);
      // Roundings on the longer path: j − x, the product, the sum, 1/j and
      // the product by it — 5 per level, so F_j is within γ_{5j}.
      a[i] = (x * a[i] + (jd - x) * a[i + 1]) * inv;
    }
    if (!row.empty()) row[j] = a[0];
  }
  return a[0];
}

}  // namespace ddm::prob
