// protocol.hpp — the distributed decision-making model of Section 3.
//
// n players; player i receives x_i ~ U[0,1] and must choose one of two bins
// of capacity t, with NO communication (Section 3.2): its local algorithm
// sees only its own input (and private coin tosses). The protocol "wins"
// when neither bin overflows: Σ_0 <= t and Σ_1 <= t, where Σ_b sums the
// inputs of the players that chose bin b.
//
// Three concrete families:
//   * ObliviousProtocol       — ignores the input; a probability vector α,
//                               α_i = P(player i chooses bin 0)  (Section 3.2)
//   * SingleThresholdProtocol — bin 0 iff x_i <= a_i               (Section 3.2)
//   * FunctorProtocol         — any computable local rule (the general model
//                               of Section 3.1), used for extension studies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "prob/rng.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// Bin identifiers (the paper's {0, 1}).
inline constexpr int kBin0 = 0;
inline constexpr int kBin1 = 1;

/// Abstract no-communication decision protocol.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Number of players n (>= 2 in the paper's model).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Player `player`'s decision given its own input; `rng` supplies the
  /// player's private coin tosses (unused by deterministic protocols).
  [[nodiscard]] virtual int decide(std::size_t player, double input, prob::Rng& rng) const = 0;

  /// Descriptive name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Oblivious protocol: player i picks bin 0 with probability α_i, ignoring
/// its input. Identified with the probability vector α (Section 3.2).
class ObliviousProtocol final : public Protocol {
 public:
  /// Throws std::invalid_argument unless every α_i ∈ [0, 1] and size >= 1.
  explicit ObliviousProtocol(std::vector<util::Rational> alpha);

  /// The optimal oblivious protocol α = (1/2, ..., 1/2) (Theorem 4.3).
  [[nodiscard]] static ObliviousProtocol uniform(std::size_t n);

  [[nodiscard]] std::size_t size() const override { return alpha_.size(); }
  [[nodiscard]] int decide(std::size_t player, double input, prob::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::span<const util::Rational> alpha() const noexcept { return alpha_; }

 private:
  std::vector<util::Rational> alpha_;
  std::vector<double> alpha_double_;
};

/// Deterministic single-threshold protocol: player i picks bin 0 iff
/// x_i <= a_i (Section 3.2).
class SingleThresholdProtocol final : public Protocol {
 public:
  /// Throws std::invalid_argument unless every a_i ∈ [0, 1] and size >= 1.
  /// (The paper allows a_i up to ∞; thresholds above 1 are equivalent to 1.)
  explicit SingleThresholdProtocol(std::vector<util::Rational> thresholds);

  /// All players share the same threshold β (the symmetric protocols of
  /// Section 5.2).
  [[nodiscard]] static SingleThresholdProtocol symmetric(std::size_t n, util::Rational beta);

  [[nodiscard]] std::size_t size() const override { return thresholds_.size(); }
  [[nodiscard]] int decide(std::size_t player, double input, prob::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::span<const util::Rational> thresholds() const noexcept {
    return thresholds_;
  }
  /// The thresholds as the doubles `decide` compares against.
  [[nodiscard]] std::span<const double> threshold_values() const noexcept {
    return thresholds_double_;
  }

 private:
  std::vector<util::Rational> thresholds_;
  std::vector<double> thresholds_double_;
};

/// Arbitrary computable local rules — the general model of Section 3.1
/// restricted to no communication. Used by the extension studies (e.g.
/// two-interval rules) and by tests.
class FunctorProtocol final : public Protocol {
 public:
  using Rule = std::function<int(double input, prob::Rng& rng)>;

  /// One rule per player; throws std::invalid_argument when empty.
  FunctorProtocol(std::vector<Rule> rules, std::string name);

  [[nodiscard]] std::size_t size() const override { return rules_.size(); }
  [[nodiscard]] int decide(std::size_t player, double input, prob::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::vector<Rule> rules_;
  std::string name_;
};

/// Outcome of one play: the two bin loads.
struct BinLoads {
  double bin0 = 0.0;
  double bin1 = 0.0;
};

/// Run the protocol on a concrete input vector; returns the two bin loads.
/// Throws std::invalid_argument when inputs.size() != protocol.size().
[[nodiscard]] BinLoads play(const Protocol& protocol, std::span<const double> inputs,
                            prob::Rng& rng);

/// Convenience: did the protocol win (no overflow) on these inputs?
[[nodiscard]] bool wins(const Protocol& protocol, std::span<const double> inputs, double t,
                        prob::Rng& rng);

/// Trials per Monte Carlo block: the RunControl poll interval of the loops.
inline constexpr std::uint64_t kTrialsPerBlock = 16384;

/// The trial loop of every Monte Carlo estimate of a threshold game. Per
/// trial, player i draws x_i = rng.uniform(0, ranges[i]) in player order and
/// adds it to bin 0 iff x_i <= thresholds[i] (±∞ pins a bin); the trial wins
/// iff both loads are <= t. Draws, loads and verdicts are bitwise those of
/// `wins` on a protocol with that rule. Returns the wins; polls `control`
/// every kTrialsPerBlock trials, and more often past 64 players, so that no
/// more than about 2^20 draws run between two polls (a stop counts the full
/// blocks done); throws std::invalid_argument on a size mismatch.
[[nodiscard]] std::uint64_t count_threshold_wins(std::span<const double> ranges,
                                                 std::span<const double> thresholds, double t,
                                                 std::uint64_t trials, prob::Rng& rng,
                                                 const util::RunControl& control = {});

}  // namespace ddm::core
