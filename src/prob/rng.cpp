#include "prob/rng.hpp"

namespace ddm::prob {

namespace {

// SplitMix64: seed expander recommended by the xoshiro authors.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Derive a child seed from the current state and the stream index through
  // SplitMix64; children with distinct stream ids get unrelated states.
  std::uint64_t sm = state_[0] ^ (state_[1] + 0x9e3779b97f4a7c15ull * (stream + 1));
  Rng child{splitmix64(sm)};
  return child;
}

}  // namespace ddm::prob
