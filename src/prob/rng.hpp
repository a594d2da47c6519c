// rng.hpp — deterministic pseudo-random number generation.
//
// All Monte Carlo cross-checks (simulated winning probabilities, volume
// estimates) must be reproducible run-to-run, so every consumer takes an
// explicit seeded generator. The engine is xoshiro256++ (Blackman & Vigna):
// fast, tiny state, excellent statistical quality, and — unlike
// std::mt19937_64 — identical output across standard library
// implementations. Streams for parallel workers are derived with SplitMix64
// jumps so they never overlap in practice.
#pragma once

#include <array>
#include <cstdint>

namespace ddm::prob {

/// xoshiro256++ engine; satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion (any 64-bit seed is fine, including 0).
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next 64 random bits. Inline, like the two uniform draws below, so a
  /// Monte Carlo trial loop pays no call per draw.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the top 53 bits scaled by 2^-53.
  [[nodiscard]] double uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1p-53; }
  /// Uniform double in [lo, hi); exactly uniform() when lo = 0 and hi = 1.
  [[nodiscard]] double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) noexcept;
  /// Bernoulli draw with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// A statistically independent child generator (for worker i, derive with
  /// `split(i)`); the parent is unaffected.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

}  // namespace ddm::prob
