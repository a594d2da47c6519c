#include "sturm.hpp"

#include <stdexcept>

namespace ddm::poly {

namespace {

// Count sign changes in a sequence of signs (-1, 0, +1), skipping zeros.
int count_changes(const std::vector<int>& signs) {
  int changes = 0;
  int previous = 0;
  for (const int s : signs) {
    if (s == 0) continue;
    if (previous != 0 && s != previous) ++changes;
    previous = s;
  }
  return changes;
}

}  // namespace

SturmSequence::SturmSequence(QPoly p) {
  if (p.is_zero()) {
    chain_.push_back(std::move(p));
    return;
  }
  chain_.push_back(p);
  QPoly d = p.derivative();
  if (d.is_zero()) return;  // constant polynomial
  chain_.push_back(std::move(d));
  while (true) {
    const QPoly& a = chain_[chain_.size() - 2];
    const QPoly& b = chain_.back();
    QPoly r = QPoly::div_mod(a, b).second;
    if (r.is_zero()) break;
    chain_.push_back(-r);
  }
}

int SturmSequence::sign_changes_at(const util::Rational& x) const {
  std::vector<int> signs;
  signs.reserve(chain_.size());
  for (const QPoly& p : chain_) signs.push_back(p.is_zero() ? 0 : p(x).signum());
  return count_changes(signs);
}

int SturmSequence::sign_changes_at_negative_infinity() const {
  std::vector<int> signs;
  signs.reserve(chain_.size());
  for (const QPoly& p : chain_) {
    if (p.is_zero()) {
      signs.push_back(0);
      continue;
    }
    const int lead = p.leading_coefficient().signum();
    signs.push_back(p.degree() % 2 == 0 ? lead : -lead);
  }
  return count_changes(signs);
}

int SturmSequence::sign_changes_at_positive_infinity() const {
  std::vector<int> signs;
  signs.reserve(chain_.size());
  for (const QPoly& p : chain_) {
    signs.push_back(p.is_zero() ? 0 : p.leading_coefficient().signum());
  }
  return count_changes(signs);
}

int SturmSequence::count_roots(const util::Rational& a, const util::Rational& b) const {
  if (a > b) throw std::invalid_argument("SturmSequence::count_roots: requires a <= b");
  return sign_changes_at(a) - sign_changes_at(b);
}

int SturmSequence::count_all_roots() const {
  return sign_changes_at_negative_infinity() - sign_changes_at_positive_infinity();
}

}  // namespace ddm::poly
