// Exact symbolic analysis of the symmetric Theorem 5.1 objective. Everything
// here is rational-arithmetic-only; it doubles as the independent ground
// truth that the certified escalation ladder's enclosures are tested against
// (certified_symmetric_threshold_winning_probability must contain the value
// of these pieces at every probe — see tests/test_certified.cpp and
// docs/robustness.md).
#include "core/symmetric_threshold.hpp"

#include <algorithm>
#include <stdexcept>

#include "combinat/binomial.hpp"
#include "util/status.hpp"

namespace ddm::core {

using poly::QPoly;
using util::Rational;

namespace {

// Zeros bracket as a polynomial in β on an interval where the indicator
// pattern is constant (decided at the probe point):
//   Z_m(β) = (1/m!) Σ_{l = 0..m : t − l·probe > 0} (−1)^l C(m,l) (t − lβ)^m.
QPoly zero_bracket_poly(std::uint32_t m, const Rational& t, const Rational& probe) {
  if (m == 0) return QPoly{Rational{1}};
  QPoly sum;
  for (std::uint32_t l = 0; l <= m; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    if ((t - ll * probe).signum() <= 0) continue;
    QPoly term = poly::binomial_power(t, -ll, m);
    term *= Rational{combinat::binomial(m, l), util::BigInt{1}};
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  sum *= combinat::inverse_factorial(m);
  return sum;
}

// Ones bracket as a polynomial in β on an interval with a constant indicator
// pattern:
//   O_k(β) = (1−β)^k − (1/k!) Σ_{l = 0..k : k−t−l+l·probe > 0}
//                       (−1)^l C(k,l) ((k−t−l) + lβ)^k.
QPoly one_bracket_poly(std::uint32_t k, const Rational& t, const Rational& probe) {
  if (k == 0) return QPoly{Rational{1}};
  const Rational kk{static_cast<std::int64_t>(k)};
  QPoly sum;
  for (std::uint32_t l = 0; l <= k; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    const Rational constant = kk - t - ll;
    if ((constant + ll * probe).signum() <= 0) continue;
    QPoly term = poly::binomial_power(constant, ll, k);
    term *= Rational{combinat::binomial(k, l), util::BigInt{1}};
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  sum *= combinat::inverse_factorial(k);
  return poly::binomial_power(Rational{1}, Rational{-1}, k) - sum;
}

}  // namespace

SymmetricThresholdAnalysis SymmetricThresholdAnalysis::build(std::uint32_t n, Rational t,
                                                             const util::RunControl& control) {
  if (n == 0) throw std::invalid_argument("SymmetricThresholdAnalysis: n == 0");
  if (t.signum() <= 0) throw std::invalid_argument("SymmetricThresholdAnalysis: t <= 0");

  // Collect every β in (0, 1) where an indicator condition flips.
  std::vector<Rational> points;
  points.push_back(Rational{0});
  points.push_back(Rational{1});
  const auto add_if_interior = [&points](const Rational& p) {
    if (p > Rational{0} && p < Rational{1}) points.push_back(p);
  };
  for (std::uint32_t l = 1; l <= n; ++l) {
    // zeros bracket: t − lβ > 0 flips at β = t / l.
    add_if_interior(t / Rational{static_cast<std::int64_t>(l)});
  }
  for (std::uint32_t k = 1; k <= n; ++k) {
    for (std::uint32_t l = 1; l <= k; ++l) {
      // ones bracket: k − t − l + lβ > 0 flips at β = (t + l − k) / l.
      add_if_interior((t + Rational{static_cast<std::int64_t>(l)} -
                       Rational{static_cast<std::int64_t>(k)}) /
                      Rational{static_cast<std::int64_t>(l)});
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  std::vector<poly::Piece> pieces;
  pieces.reserve(points.size() - 1);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    throw_if_stopped(control, "SymmetricThresholdAnalysis::build", i, points.size() - 1);
    const Rational& lo = points[i];
    const Rational& hi = points[i + 1];
    const Rational probe = (lo + hi) * Rational{1, 2};
    QPoly piece_poly;
    for (std::uint32_t k = 0; k <= n; ++k) {
      QPoly term = zero_bracket_poly(n - k, t, probe) * one_bracket_poly(k, t, probe);
      term *= Rational{combinat::binomial(n, k), util::BigInt{1}};
      piece_poly += term;
    }
    pieces.push_back(poly::Piece{lo, hi, std::move(piece_poly)});
  }
  return SymmetricThresholdAnalysis{n, std::move(t),
                                    poly::PiecewisePolynomial{std::move(pieces)}};
}

std::vector<Rational> SymmetricThresholdAnalysis::breakpoints() const {
  std::vector<Rational> out;
  out.reserve(pieces_.pieces().size() + 1);
  out.push_back(pieces_.domain_lo());
  for (const poly::Piece& piece : pieces_.pieces()) out.push_back(piece.hi);
  return out;
}

SymmetricOptimum SymmetricThresholdAnalysis::optimize(const util::RunControl& control) const {
  const poly::MaxCandidate best =
      pieces_.maximize(poly::PiecewisePolynomial::default_refine_width(), nullptr, control);
  SymmetricOptimum optimum;
  optimum.beta = best.location;
  optimum.value = best.value;
  optimum.piece_index = best.piece_index;
  optimum.interior = best.interior_critical;
  optimum.optimality_condition = pieces_.pieces()[best.piece_index].poly.derivative();
  optimum.certified = best.certified;
  return optimum;
}

}  // namespace ddm::core
