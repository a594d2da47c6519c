#include "poly/piecewise.hpp"

#include <algorithm>
#include <stdexcept>

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

  std::vector<MaxCandidate> candidates;
  const auto refresh_bounds = [this](MaxCandidate& candidate) {
    const QPoly& poly = pieces_[candidate.piece_index].poly;
    if (candidate.location.is_exact()) {
      candidate.value = poly(candidate.location.lo);
      candidate.value_bounds = RationalInterval{candidate.value};
    } else {
      candidate.value = poly(candidate.location.midpoint());
      candidate.value_bounds =
          evaluate_interval(poly, RationalInterval{candidate.location.lo,
                                                   candidate.location.hi});
    }
  };

  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    throw_if_stopped(control, kLabel, i, pieces_.size());
    const Piece& piece = pieces_[i];
    // Endpoints of the piece (the left endpoint of piece 0 plus every hi).
    if (i == 0) {
      candidates.push_back(
          MaxCandidate{RootInterval{piece.lo, piece.lo}, Rational{0}, i, false});
    }
    candidates.push_back(MaxCandidate{RootInterval{piece.hi, piece.hi}, Rational{0}, i, false});
    // Interior critical points: roots of the derivative strictly inside.
    const QPoly deriv = piece.poly.derivative();
    if (deriv.is_zero() || deriv.degree() < 1) continue;
    for (RootInterval root : isolate_roots(deriv, piece.lo, piece.hi)) {
      root = refine_root(deriv, root, refine_width);
      const Rational point = root.midpoint();
      if (point <= piece.lo || point >= piece.hi) continue;  // endpoint, already covered
      candidates.push_back(MaxCandidate{root, Rational{0}, i, true});
    }
  }
  for (MaxCandidate& candidate : candidates) refresh_bounds(candidate);

  // Certification loop: pick the champion by upper bound; any other candidate
  // whose enclosure reaches the champion's lower bound blocks the proof,
  // unless it is an exact tie of point values. Refine the blockers (and the
  // champion) and retry. Distinct algebraic values separate after finitely
  // many rounds; the cap only bites for genuinely tied interior maxima.
  std::size_t champion_index = 0;
  bool certified = false;
  constexpr int kMaxRounds = 128;
  for (int round = 0; round < kMaxRounds; ++round) {
    throw_if_stopped(control, kLabel, pieces_.size(), pieces_.size());
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
      const QPoly deriv = pieces_[candidate.piece_index].poly.derivative();
      candidate.location =
          refine_root(deriv, candidate.location, candidate.location.width() * Rational{1, 2});
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
