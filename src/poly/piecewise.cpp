#include "poly/piecewise.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "poly/bernstein.hpp"
#include "util/status.hpp"

namespace ddm::poly {

using util::Rational;

PiecewisePolynomial::PiecewisePolynomial(std::vector<Piece> pieces) : pieces_(std::move(pieces)) {
  if (pieces_.empty()) throw std::invalid_argument("PiecewisePolynomial: no pieces");
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    if (pieces_[i].lo >= pieces_[i].hi) {
      throw std::invalid_argument("PiecewisePolynomial: empty or inverted piece interval");
    }
    if (i > 0 && pieces_[i].lo != pieces_[i - 1].hi) {
      throw std::invalid_argument("PiecewisePolynomial: pieces are not contiguous");
    }
  }
}

Rational PiecewisePolynomial::operator()(const Rational& x) const {
  if (x < domain_lo() || x > domain_hi()) {
    throw std::out_of_range("PiecewisePolynomial: point outside domain");
  }
  for (const Piece& piece : pieces_) {
    if (x <= piece.hi) return piece.poly(x);
  }
  return pieces_.back().poly(x);  // unreachable; keeps the compiler satisfied
}

double PiecewisePolynomial::eval_double(double x) const {
  // Double path mirrors the exact rule using double breakpoints.
  for (const Piece& piece : pieces_) {
    if (x <= piece.hi.to_double()) return to_double(piece.poly)(x);
  }
  return to_double(pieces_.back().poly)(x);
}

bool PiecewisePolynomial::is_continuous() const {
  for (std::size_t i = 1; i < pieces_.size(); ++i) {
    const Rational& boundary = pieces_[i].lo;
    if (pieces_[i - 1].poly(boundary) != pieces_[i].poly(boundary)) return false;
  }
  return true;
}

PiecewisePolynomial PiecewisePolynomial::derivative() const {
  std::vector<Piece> out;
  out.reserve(pieces_.size());
  for (const Piece& piece : pieces_) {
    out.push_back(Piece{piece.lo, piece.hi, piece.poly.derivative()});
  }
  return PiecewisePolynomial{std::move(out)};
}

Rational PiecewisePolynomial::integral(const Rational& a, const Rational& b) const {
  if (a > b) throw std::out_of_range("PiecewisePolynomial::integral: a > b");
  if (a < domain_lo() || b > domain_hi()) {
    throw std::out_of_range("PiecewisePolynomial::integral: range outside domain");
  }
  Rational total{0};
  for (const Piece& piece : pieces_) {
    const Rational lo = std::max(piece.lo, a);
    const Rational hi = std::min(piece.hi, b);
    if (lo >= hi) continue;
    const QPoly anti = piece.poly.antiderivative();
    total += anti(hi) - anti(lo);
  }
  return total;
}

MaxCandidate PiecewisePolynomial::maximize(const Rational& refine_width,
                                           std::vector<MaxCandidate>* all_candidates,
                                           const util::RunControl& control) const {
  using util::RationalInterval;
  constexpr const char* kLabel = "PiecewisePolynomial::maximize";
  static const obs::Counter pieces_pruned = obs::counter("poly.maximize.pieces_pruned");
  static const obs::Counter pieces_isolated = obs::counter("poly.maximize.pieces_isolated");
  const std::size_t count = pieces_.size();
  int max_degree = 0;
  for (const Piece& piece : pieces_) max_degree = std::max(max_degree, piece.poly.degree());
  DDM_SPAN("poly.maximize", {{"n", max_degree}, {"pieces", count}});

  // Every piece over the integers: pieces_[i].poly == numerators[i] / dens[i].
  std::vector<ZPoly> numerators(count);
  std::vector<util::BigInt> dens(count);
  for (std::size_t i = 0; i < count; ++i) {
    numerators[i] = clear_denominators(pieces_[i].poly, &dens[i]);
  }

  // 1. Every breakpoint, exactly: the domain's left end on piece 0, then each
  //    piece's right end on that piece.
  const Rational first_value = evaluate(numerators[0], dens[0], pieces_[0].lo);
  std::vector<Rational> right_values(count);
  Rational best_breakpoint = first_value;
  for (std::size_t i = 0; i < count; ++i) {
    right_values[i] = evaluate(numerators[i], dens[i], pieces_[i].hi);
    best_breakpoint = std::max(best_breakpoint, right_values[i]);
  }

  // 2. A piece whose Bernstein bound does not exceed the best breakpoint
  //    cannot hold the maximum in its interior: drop it. 3. On the rest,
  //    isolate the derivative's roots by Descartes' rule and refine them by
  //    integer sign bisection.
  std::vector<ZPoly> derivatives(count);
  std::vector<std::vector<RootInterval>> critical(count);
  for (std::size_t i = 0; i < count; ++i) {
    throw_if_stopped(control, kLabel, i, count);
    const Piece& piece = pieces_[i];
    if (piece.poly.degree() < 2) continue;  // a linear piece has no critical point
    const Rational bound = to_bernstein(numerators[i], piece.lo, piece.hi).upper_bound() /
                           Rational{dens[i], util::BigInt{1}};
    if (bound <= best_breakpoint) {
      pieces_pruned.add();
      continue;
    }
    pieces_isolated.add();
    derivatives[i] = numerators[i].derivative();
    for (RootInterval root : isolate_roots(derivatives[i], piece.lo, piece.hi)) {
      root = refine_root(derivatives[i], root, refine_width);
      const Rational point = root.midpoint();
      if (point <= piece.lo || point >= piece.hi) continue;  // endpoint, already covered
      critical[i].push_back(std::move(root));
    }
  }

  // An interior candidate's enclosure is the mean-value form
  // p(m) + p'(X)·(X − m) over its isolating interval X with midpoint m. p'
  // vanishes inside X, so the form is about |p''|·|X|² wide, where interval
  // Horner on p over X would be about Σ|c_i|·|X| — loose once cancellation
  // makes the monomial coefficients large.
  const auto refresh_bounds = [&](MaxCandidate& candidate) {
    const std::size_t i = candidate.piece_index;
    const Rational mid = candidate.location.midpoint();
    candidate.value = evaluate(numerators[i], dens[i], mid);
    const RationalInterval slope = evaluate_interval(
        pieces_[i].poly.derivative(),
        RationalInterval{candidate.location.lo, candidate.location.hi});
    candidate.value_bounds =
        RationalInterval{candidate.value} +
        slope * RationalInterval{candidate.location.lo - mid, candidate.location.hi - mid};
  };
  std::vector<MaxCandidate> candidates;
  const auto add_breakpoint = [&candidates](const Rational& at, const Rational& value,
                                            std::size_t i) {
    candidates.push_back(
        MaxCandidate{RootInterval{at, at}, value, i, false, RationalInterval{value}});
  };
  add_breakpoint(pieces_[0].lo, first_value, 0);
  for (std::size_t i = 0; i < count; ++i) {
    add_breakpoint(pieces_[i].hi, right_values[i], i);
    for (RootInterval& root : critical[i]) {
      candidates.push_back(MaxCandidate{std::move(root), Rational{0}, i, true});
      refresh_bounds(candidates.back());
    }
  }

  // Certification loop: pick the champion by upper bound; any other candidate
  // whose enclosure reaches the champion's lower bound blocks the proof,
  // unless it is an exact tie of point values. Refine the blockers (and the
  // champion) and retry. Distinct algebraic values separate after finitely
  // many rounds; the cap only bites for genuinely tied interior maxima.
  std::size_t champion_index = 0;
  bool certified = false;
  constexpr int kMaxRounds = 128;
  for (int round = 0; round < kMaxRounds; ++round) {
    throw_if_stopped(control, kLabel, count, count);
    champion_index = 0;
    for (std::size_t c = 1; c < candidates.size(); ++c) {
      if (candidates[c].value_bounds.hi() > candidates[champion_index].value_bounds.hi()) {
        champion_index = c;
      }
    }
    const RationalInterval& champ = candidates[champion_index].value_bounds;
    std::vector<std::size_t> blockers;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (c == champion_index) continue;
      const RationalInterval& other = candidates[c].value_bounds;
      if (!other.overlaps(champ)) continue;
      if (other.is_point() && champ.is_point()) continue;  // exact tie is fine
      blockers.push_back(c);
    }
    if (blockers.empty()) {
      certified = true;
      break;
    }
    // Halve the isolating intervals of every refinable participant.
    bool refined_any = false;
    blockers.push_back(champion_index);
    for (const std::size_t c : blockers) {
      MaxCandidate& candidate = candidates[c];
      if (candidate.location.is_exact()) continue;
      candidate.location = refine_root(derivatives[candidate.piece_index], candidate.location,
                                       candidate.location.width() * Rational{1, 2});
      refresh_bounds(candidate);
      refined_any = true;
    }
    if (!refined_any) {
      // Only exact points remain and they tie with the champion: certified.
      certified = true;
      break;
    }
  }
  candidates[champion_index].certified = certified;

  MaxCandidate result = candidates[champion_index];
  if (all_candidates != nullptr) {
    std::sort(candidates.begin(), candidates.end(),
              [](const MaxCandidate& a, const MaxCandidate& b) {
                return a.location.midpoint() < b.location.midpoint();
              });
    *all_candidates = std::move(candidates);
  }
  return result;
}

}  // namespace ddm::poly
