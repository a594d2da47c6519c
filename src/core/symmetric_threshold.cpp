// Exact symbolic analysis of the symmetric Theorem 5.1 objective. Everything
// here is exact integer or rational arithmetic; it doubles as the independent
// ground truth that the certified escalation ladder's enclosures are tested against
// (certified_symmetric_threshold_winning_probability must contain the value
// of these pieces at every probe — see tests/test_certified.cpp and
// docs/robustness.md).
#include "core/symmetric_threshold.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "combinat/binomial.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::core {

using poly::QPoly;
using poly::ZPoly;
using util::BigInt;
using util::Rational;

namespace {

// The brackets of Theorem 5.1 over the integers, with t = r/s. On a piece the
// active l of each bracket are a prefix l < L (t − lβ > 0 and k − t − l + lβ
// > 0 both weaken as l grows), so a bracket depends only on its degree and L,
// and the bracket for L is the one for L − 1 plus one term:
//   zeros(m, L) = Σ_{l<L} (−1)^l C(m,l) (r − l·s·β)^m          = m! s^m Z_m(β)
//   ones(k, L)  = k! s^k (1−β)^k
//                 − Σ_{l<L} (−1)^l C(k,l) ((k−l)s − r + l·s·β)^k  = k! s^k O_k(β).
// Each is built once, on first use.
class Brackets {
 public:
  Brackets(std::uint32_t n, BigInt r, BigInt s)
      : r_(std::move(r)), s_(std::move(s)), zeros_(n + 1), ones_(n + 1) {}

  const ZPoly& zeros(std::uint32_t m, std::uint32_t length) {
    std::vector<ZPoly>& row = zeros_[m];
    if (row.empty()) row.emplace_back();
    while (row.size() <= length) {
      const std::uint32_t l = static_cast<std::uint32_t>(row.size()) - 1;
      ZPoly term = poly::binomial_power(r_, -(BigInt{l} * s_), m);
      term *= combinat::binomial(m, l);
      row.push_back(l % 2 == 0 ? row.back() + term : row.back() - term);
    }
    return row[length];
  }

  const ZPoly& ones(std::uint32_t k, std::uint32_t length) {
    std::vector<ZPoly>& row = ones_[k];
    if (row.empty()) {
      row.push_back(poly::binomial_power(BigInt{1}, BigInt{-1}, k) *
                    (BigInt::factorial(k) * BigInt::pow(s_, k)));
    }
    while (row.size() <= length) {
      const std::uint32_t l = static_cast<std::uint32_t>(row.size()) - 1;
      ZPoly term = poly::binomial_power(BigInt{k - l} * s_ - r_, BigInt{l} * s_, k);
      term *= combinat::binomial(k, l);
      row.push_back(l % 2 == 0 ? row.back() - term : row.back() + term);
    }
    return row[length];
  }

 private:
  BigInt r_;
  BigInt s_;
  std::vector<std::vector<ZPoly>> zeros_;
  std::vector<std::vector<ZPoly>> ones_;
};

// Number of integers l in [0, cap) with l < bound, for bound > 0.
std::uint32_t prefix_below(const Rational& bound, std::uint32_t cap) {
  const BigInt ceiling = bound.ceil();
  return ceiling < BigInt{cap} ? static_cast<std::uint32_t>(ceiling.to_int64()) : cap;
}

// Every β in (0, 1) where an indicator condition flips, plus 0 and 1, sorted.
std::vector<Rational> collect_breakpoints(std::uint32_t n, const Rational& t) {
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
  return points;
}

}  // namespace

SymmetricThresholdAnalysis SymmetricThresholdAnalysis::build(std::uint32_t n, Rational t,
                                                             const util::RunControl& control) {
  if (n == 0) throw std::invalid_argument("SymmetricThresholdAnalysis: n == 0");
  if (t.signum() <= 0) throw std::invalid_argument("SymmetricThresholdAnalysis: t <= 0");
  const std::vector<Rational> points = collect_breakpoints(n, t);
  const std::size_t count = points.size() - 1;
  DDM_SPAN("core.analysis.build", {{"n", n}, {"pieces", count}});

  // P(β) = Σ_k C(n,k) Z_{n−k}(β) O_k(β) = Σ_k C(n,k)² zeros·ones / (n! s^n):
  // one integer numerator over one denominator per piece. Adjacent pieces
  // differ in a few prefix lengths, so only the terms whose brackets changed
  // are recomputed.
  Brackets brackets{n, t.num(), t.den()};
  const BigInt denominator = BigInt::factorial(n) * BigInt::pow(t.den(), n);
  std::vector<BigInt> squared_binomials(n + 1);
  for (std::uint32_t k = 0; k <= n; ++k) {
    const BigInt c = combinat::binomial(n, k);
    squared_binomials[k] = c * c;
  }
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lengths(n + 1, {kUnset, kUnset});
  std::vector<ZPoly> terms(n + 1);
  ZPoly numerator;

  // The first piece builds most brackets, so the control is polled once per
  // recomputed term, not just once per piece.
  const std::string label = "SymmetricThresholdAnalysis::build";
  std::vector<poly::Piece> pieces;
  pieces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    throw_if_stopped(control, label, i, count);
    const Rational& lo = points[i];
    const Rational& hi = points[i + 1];
    const Rational probe = (lo + hi) * Rational{1, 2};
    // zeros: l active iff l < t / probe; ones: l active iff l < (k − t)/(1 − probe).
    const std::uint32_t zeros_length = prefix_below(t / probe, n + 1);
    const Rational ones_scale = (Rational{1} - probe).inverse();
    for (std::uint32_t k = 0; k <= n; ++k) {
      const Rational excess = Rational{static_cast<std::int64_t>(k)} - t;
      const std::pair<std::uint32_t, std::uint32_t> key{
          std::min(zeros_length, n - k + 1),
          excess.signum() > 0 ? prefix_below(excess * ones_scale, k + 1) : 0};
      if (key == lengths[k]) continue;
      throw_if_stopped(control, label, i, count);
      numerator -= terms[k];
      terms[k] = brackets.zeros(n - k, key.first) * brackets.ones(k, key.second);
      terms[k] *= squared_binomials[k];
      numerator += terms[k];
      lengths[k] = key;
    }
    std::vector<Rational> coeffs;
    coeffs.reserve(numerator.coefficients().size());
    for (const BigInt& c : numerator.coefficients()) coeffs.emplace_back(c, denominator);
    pieces.push_back(poly::Piece{lo, hi, QPoly{std::move(coeffs)}});
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
