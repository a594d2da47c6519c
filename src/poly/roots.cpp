#include "poly/roots.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "poly/bernstein.hpp"

namespace ddm::poly {

namespace {

using util::BigInt;
using util::Rational;

// Subdivision depth below which a cell still showing two or more sign
// changes is taken for a multiple root: the isolator then restarts on the
// square-free part, where Descartes' method always terminates.
constexpr int kMultipleRootDepth = 64;

QPoly to_rational(const ZPoly& p) {
  std::vector<Rational> coeffs;
  coeffs.reserve(p.coefficients().size());
  for (const BigInt& c : p.coefficients()) coeffs.emplace_back(c, BigInt{1});
  return QPoly{std::move(coeffs)};
}

ZPoly square_free_part(const ZPoly& p) {
  return clear_denominators(to_rational(p).square_free_part());
}

// Sign changes along the Bernstein coefficients, zeros skipped: Descartes'
// bound on the number of roots in the open interval.
int sign_variations(const std::vector<BigInt>& coeffs) {
  int changes = 0;
  int previous = 0;
  for (const BigInt& c : coeffs) {
    const int s = c.signum();
    if (s == 0) continue;
    if (previous != 0 && s != previous) ++changes;
    previous = s;
  }
  return changes;
}

// Divides every coefficient by the largest power of two they share.
void strip_common_twos(std::vector<BigInt>& coeffs) {
  std::size_t shift = std::numeric_limits<std::size_t>::max();
  for (const BigInt& c : coeffs) {
    if (!c.is_zero()) shift = std::min(shift, c.trailing_zero_bits());
  }
  if (shift == 0 || shift == std::numeric_limits<std::size_t>::max()) return;
  for (BigInt& c : coeffs) c >>= shift;
}

struct Halves {
  std::vector<BigInt> left;
  std::vector<BigInt> right;
};

// De Casteljau subdivision at the midpoint with integer additions and shifts
// only. Row r of the triangle, without its 2^-r, is x_i ← x_i + x_{i+1}; the
// left half's j-th coefficient is row j's first entry over 2^j, the right
// half's (d−j)-th is row j's last over 2^j. Both halves are scaled by 2^d to
// stay integral, then divided by the largest power of two they share.
// left.back() and right.front() are zero exactly when p vanishes at the
// midpoint.
Halves split_at_midpoint(std::vector<BigInt> coeffs) {
  const std::size_t d = coeffs.size() - 1;
  Halves halves{std::vector<BigInt>(d + 1), std::vector<BigInt>(d + 1)};
  halves.left[0] = coeffs[0] << d;
  halves.right[d] = coeffs[d] << d;
  for (std::size_t r = 1; r <= d; ++r) {
    for (std::size_t i = 0; i + r <= d; ++i) coeffs[i] += coeffs[i + 1];
    halves.left[r] = coeffs[0] << (d - r);
    halves.right[d - r] = coeffs[d - r] << (d - r);
  }
  strip_common_twos(halves.left);
  strip_common_twos(halves.right);
  return halves;
}

// Appends isolating intervals for the roots inside the open cell (a, b), given
// the polynomial's Bernstein coefficients there, left to right. A cell with
// one sign change is isolating only if neither end is a root; otherwise it is
// halved, and a root at the midpoint is reported exactly. Returns false when
// `depth_cap` (negative: none) is reached.
bool isolate_cell(std::vector<BigInt> coeffs, const Rational& a, const Rational& b, int depth,
                  int depth_cap, std::vector<RootInterval>& out) {
  const int changes = sign_variations(coeffs);
  if (changes == 0) return true;
  if (changes == 1 && !coeffs.front().is_zero() && !coeffs.back().is_zero()) {
    out.push_back(RootInterval{a, b});
    return true;
  }
  if (depth_cap >= 0 && depth >= depth_cap) return false;
  Halves halves = split_at_midpoint(std::move(coeffs));
  const Rational mid = (a + b) * Rational{1, 2};
  const bool mid_is_root = halves.left.back().is_zero();
  if (!isolate_cell(std::move(halves.left), a, mid, depth + 1, depth_cap, out)) return false;
  if (mid_is_root) out.push_back(RootInterval{mid, mid});
  return isolate_cell(std::move(halves.right), mid, b, depth + 1, depth_cap, out);
}

// Sign bisection of (lo, hi] down to `width`; p must change sign at the one
// root inside, and sign_hi is the nonzero sign of p(hi). The interval is kept
// as (l/den, h/den] over one denominator that doubles at each halving, so a
// step costs shifts and one integer evaluation; only the result is
// normalized.
RootInterval bisect(const ZPoly& p, const RootInterval& interval, const Rational& width,
                    int sign_hi) {
  BigInt den = interval.lo.den() / BigInt::gcd(interval.lo.den(), interval.hi.den()) *
               interval.hi.den();
  BigInt l = interval.lo.num() * (den / interval.lo.den());
  BigInt h = interval.hi.num() * (den / interval.hi.den());
  // h − l stays fixed as den doubles: the width is (h − l)/den.
  const BigInt span = (h - l) * width.den();
  BigInt limit = width.num() * den;
  while (span > limit) {
    BigInt mid = l + h;
    l <<= 1;
    h <<= 1;
    den <<= 1;
    limit <<= 1;
    const int sign_mid = sign_at(p, mid, den);
    if (sign_mid == 0) {
      const Rational root{std::move(mid), den};
      return RootInterval{root, root};
    }
    (sign_mid == sign_hi ? h : l) = std::move(mid);
  }
  return RootInterval{Rational{std::move(l), den}, Rational{std::move(h), std::move(den)}};
}

}  // namespace

std::vector<RootInterval> isolate_roots(const ZPoly& p, const Rational& lo, const Rational& hi) {
  if (p.is_zero()) throw std::invalid_argument("isolate_roots: zero polynomial");
  if (lo > hi) throw std::invalid_argument("isolate_roots: lo > hi");
  std::vector<RootInterval> out;
  if (lo == hi || p.degree() == 0) return out;
  const BernsteinForm form = to_bernstein(p, lo, hi);
  if (!isolate_cell(form.coeffs, lo, hi, 0, kMultipleRootDepth, out)) {
    out.clear();
    (void)isolate_cell(to_bernstein(square_free_part(p), lo, hi).coeffs, lo, hi, 0, -1, out);
  }
  if (form.coeffs.back().is_zero()) out.push_back(RootInterval{hi, hi});  // (lo, hi] holds hi
  return out;
}

std::vector<RootInterval> isolate_roots(const QPoly& p, const Rational& lo, const Rational& hi) {
  if (p.is_zero()) throw std::invalid_argument("isolate_roots: zero polynomial");
  return isolate_roots(clear_denominators(p), lo, hi);
}

Rational cauchy_root_bound(const QPoly& p) {
  if (p.is_zero()) throw std::invalid_argument("cauchy_root_bound: zero polynomial");
  const Rational lead = p.leading_coefficient().abs();
  Rational max_ratio{0};
  for (int i = 0; i < p.degree(); ++i) {
    const Rational ratio = p.coefficient(static_cast<std::size_t>(i)).abs() / lead;
    if (ratio > max_ratio) max_ratio = ratio;
  }
  return Rational{1} + max_ratio;
}

std::vector<RootInterval> isolate_all_roots(const QPoly& p) {
  if (p.is_zero()) throw std::invalid_argument("isolate_all_roots: zero polynomial");
  if (p.degree() == 0) return {};
  const Rational bound = cauchy_root_bound(p);
  return isolate_roots(p, -bound, bound);
}

RootInterval refine_root(const ZPoly& p, RootInterval interval, const Rational& width) {
  if (interval.is_exact()) return interval;
  const int sign_hi = sign_at(p, interval.hi);
  if (sign_hi == 0) return RootInterval{interval.hi, interval.hi};
  if (sign_at(p, interval.lo) * sign_hi < 0) return bisect(p, interval, width, sign_hi);
  // No sign change across (lo, hi]: the root has even multiplicity (or lo is
  // a root too). Its square-free part changes sign there, simply.
  const ZPoly square_free = square_free_part(p);
  return bisect(square_free, interval, width, sign_at(square_free, interval.hi));
}

RootInterval refine_root(const QPoly& p, RootInterval interval, const Rational& width) {
  if (interval.is_exact()) return interval;
  return refine_root(clear_denominators(p), std::move(interval), width);
}

RootInterval unique_root(const QPoly& p, const Rational& lo, const Rational& hi,
                         const Rational& width) {
  std::vector<RootInterval> roots = isolate_roots(p, lo, hi);
  if (roots.size() != 1) {
    throw std::logic_error("unique_root: interval does not contain exactly one root");
  }
  return refine_root(p, roots[0], width);
}

}  // namespace ddm::poly
