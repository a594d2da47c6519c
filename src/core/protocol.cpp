#include "core/protocol.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

void check_probability_vector(std::span<const Rational> values, const char* what) {
  if (values.empty()) throw std::invalid_argument(std::string(what) + ": need >= 1 player");
  for (const Rational& v : values) {
    if (v < Rational{0} || v > Rational{1}) {
      throw std::invalid_argument(std::string(what) + ": entries must lie in [0, 1]");
    }
  }
}

/// Adds x to `load0` when x <= a and to `load1` otherwise, with no branch on
/// the draw: a compare mask keeps x for one load and +0.0, which leaves a
/// nonnegative load unchanged, for the other. GCC/Clang vector types keep
/// the compare and both masks in vector registers (lane 0 is the value).
void route(double x, double a, double& load0, double& load1) {
  using Lane = double __attribute__((vector_size(16)));
  using Bits = std::int64_t __attribute__((vector_size(16)));
  const Lane value{x, 0.0};
  const Bits to_load0 = value <= Lane{a, 0.0};
  load0 += ((Lane)((Bits)value & to_load0))[0];
  load1 += ((Lane)((Bits)value & ~to_load0))[0];
}

std::vector<double> to_doubles(std::span<const Rational> values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (const Rational& v : values) out.push_back(v.to_double());
  return out;
}

}  // namespace

ObliviousProtocol::ObliviousProtocol(std::vector<Rational> alpha) : alpha_(std::move(alpha)) {
  check_probability_vector(alpha_, "ObliviousProtocol");
  alpha_double_ = to_doubles(alpha_);
}

ObliviousProtocol ObliviousProtocol::uniform(std::size_t n) {
  return ObliviousProtocol{std::vector<Rational>(n, Rational{1, 2})};
}

int ObliviousProtocol::decide(std::size_t player, double /*input*/, prob::Rng& rng) const {
  if (player >= alpha_.size()) throw std::out_of_range("ObliviousProtocol::decide: bad player");
  return rng.bernoulli(alpha_double_[player]) ? kBin0 : kBin1;
}

std::string ObliviousProtocol::name() const {
  std::ostringstream oss;
  oss << "oblivious(alpha=[";
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    if (i != 0) oss << ", ";
    oss << alpha_[i];
  }
  oss << "])";
  return oss.str();
}

SingleThresholdProtocol::SingleThresholdProtocol(std::vector<Rational> thresholds)
    : thresholds_(std::move(thresholds)) {
  check_probability_vector(thresholds_, "SingleThresholdProtocol");
  thresholds_double_ = to_doubles(thresholds_);
}

SingleThresholdProtocol SingleThresholdProtocol::symmetric(std::size_t n, Rational beta) {
  return SingleThresholdProtocol{std::vector<Rational>(n, std::move(beta))};
}

int SingleThresholdProtocol::decide(std::size_t player, double input, prob::Rng& /*rng*/) const {
  if (player >= thresholds_.size()) {
    throw std::out_of_range("SingleThresholdProtocol::decide: bad player");
  }
  return input <= thresholds_double_[player] ? kBin0 : kBin1;
}

std::string SingleThresholdProtocol::name() const {
  std::ostringstream oss;
  oss << "single-threshold(a=[";
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (i != 0) oss << ", ";
    oss << thresholds_[i];
  }
  oss << "])";
  return oss.str();
}

FunctorProtocol::FunctorProtocol(std::vector<Rule> rules, std::string name)
    : rules_(std::move(rules)), name_(std::move(name)) {
  if (rules_.empty()) throw std::invalid_argument("FunctorProtocol: need >= 1 player");
  for (const Rule& rule : rules_) {
    if (!rule) throw std::invalid_argument("FunctorProtocol: empty rule");
  }
}

int FunctorProtocol::decide(std::size_t player, double input, prob::Rng& rng) const {
  if (player >= rules_.size()) throw std::out_of_range("FunctorProtocol::decide: bad player");
  return rules_[player](input, rng);
}

BinLoads play(const Protocol& protocol, std::span<const double> inputs, prob::Rng& rng) {
  if (inputs.size() != protocol.size()) {
    throw std::invalid_argument("play: input vector size does not match protocol size");
  }
  BinLoads loads;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const int bin = protocol.decide(i, inputs[i], rng);
    if (bin == kBin0) {
      loads.bin0 += inputs[i];
    } else if (bin == kBin1) {
      loads.bin1 += inputs[i];
    } else {
      throw std::logic_error("play: protocol returned an invalid bin");
    }
  }
  return loads;
}

bool wins(const Protocol& protocol, std::span<const double> inputs, double t, prob::Rng& rng) {
  const BinLoads loads = play(protocol, inputs, rng);
  return loads.bin0 <= t && loads.bin1 <= t;
}

std::uint64_t count_threshold_wins(std::span<const double> ranges,
                                   std::span<const double> thresholds, double t,
                                   std::uint64_t trials, prob::Rng& rng,
                                   const util::RunControl& control) {
  if (ranges.size() != thresholds.size()) {
    throw std::invalid_argument("count_threshold_wins: ranges and thresholds differ in size");
  }
  const std::uint64_t blocks = (trials + kTrialsPerBlock - 1) / kTrialsPerBlock;
  // Up to 64 players a block is at most 2^20 draws and one poll per block
  // suffices; past that the poll stride shrinks (about 4 ms at n = 1000).
  const std::uint64_t stride = std::clamp<std::uint64_t>(
      (kTrialsPerBlock * 64) / std::max<std::size_t>(ranges.size(), 1), 1, kTrialsPerBlock);
  std::uint64_t won = 0;
  for (std::uint64_t first = 0; first < trials; first += stride) {
    throw_if_stopped(control, "monte_carlo", first / kTrialsPerBlock, blocks);
    const std::uint64_t last = std::min(trials, first + stride);
    for (std::uint64_t trial = first; trial < last; ++trial) {
      double load0 = 0.0;
      double load1 = 0.0;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        route(rng.uniform(0.0, ranges[i]), thresholds[i], load0, load1);
      }
      won += std::uint64_t{load0 <= t} & std::uint64_t{load1 <= t};
    }
  }
  return won;
}

}  // namespace ddm::core
