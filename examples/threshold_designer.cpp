// threshold_designer — a command-line tool that, given n and capacity t,
// derives the exact optimal single-threshold protocol: the piecewise
// polynomial P(beta), its breakpoints, the optimality condition, and the
// certified optimal threshold with as many digits as you ask for.
//
// Usage: example_threshold_designer [n] [t_num/t_den] [digits]
// Defaults: n = 3, t = 1, digits = 30  (the paper's Section 5.2.1 instance).
#include <cstdlib>
#include <iostream>
#include <string>

#include "ddm.hpp"

namespace {

void usage() {
  std::cout << "usage: example_threshold_designer [n] [t as a/b or integer] [digits]\n"
            << "example: example_threshold_designer 4 4/3 40\n";
}

}  // namespace

int main(int argc, char** argv) {
  using ddm::util::BigInt;
  using ddm::util::Rational;

  std::uint32_t n = 3;
  Rational t{1};
  int digits = 30;
  try {
    if (argc > 1) n = static_cast<std::uint32_t>(std::stoul(argv[1]));
    if (argc > 2) t = Rational::parse(argv[2]);
    if (argc > 3) digits = std::stoi(argv[3]);
    if (n == 0 || n > 12 || t.signum() <= 0 || digits < 1 || digits > 200) {
      usage();
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad arguments: " << e.what() << "\n";
    usage();
    return 1;
  }

  std::cout << "Designing the optimal symmetric single-threshold protocol\n"
            << "  players n = " << n << ", bin capacity t = " << t << "\n\n";

  const auto analysis = ddm::core::SymmetricThresholdAnalysis::build(n, t);

  std::cout << "Winning probability P(beta), derived exactly from Theorem 5.1:\n";
  for (const auto& piece : analysis.winning_probability().pieces()) {
    std::cout << "  beta in [" << piece.lo << ", " << piece.hi << "]:  P = "
              << piece.poly.to_string("beta") << "\n";
  }

  const auto opt = analysis.optimize();
  std::cout << "\nOptimality condition on the optimal piece:\n  P'(beta) = "
            << opt.optimality_condition.to_string("beta") << (opt.interior ? "  = 0" : "")
            << "\n";

  // Refine the optimal threshold to the requested precision: width 10^-digits.
  const Rational width{BigInt{1}, BigInt::pow(BigInt{10}, static_cast<std::uint64_t>(digits))};
  ddm::poly::RootInterval beta = opt.beta;
  if (opt.interior) {
    beta = ddm::poly::refine_root(opt.optimality_condition, beta, width);
  }

  // Decimal expansion of the midpoint to `digits` places.
  const Rational mid = beta.midpoint();
  const BigInt scaled = (mid * Rational{BigInt::pow(BigInt{10}, static_cast<std::uint64_t>(digits)),
                                        BigInt{1}})
                            .floor();
  std::string digits_text = scaled.to_string();
  while (digits_text.size() < static_cast<std::size_t>(digits) + 1) {
    digits_text.insert(digits_text.begin(), '0');
  }
  digits_text.insert(digits_text.size() - static_cast<std::size_t>(digits), 1, '.');

  // Evaluate P(beta*) through the engine registry's exact backend — the same
  // value as analysis.winning_probability()(mid), but via the seam every
  // other caller (CLI, optimizer) uses.
  auto request = ddm::engine::EvalRequest::symmetric(n, t, {mid.to_double()});
  request.exact_betas = {mid};
  const auto outcome =
      ddm::engine::Registry::instance().require("exact").evaluate(request);

  std::cout << "\nOptimal threshold:\n  beta* = " << digits_text << "\n"
            << "  (certified within 10^-" << digits << " by Sturm bisection)\n"
            << "\nWinning probability at the optimum:\n  P(beta*) = "
            << ddm::util::fmt(outcome.values.front(), 15) << "\n";

  std::cout << "\nFor comparison, the optimal oblivious (input-blind) protocol achieves "
            << ddm::util::fmt(
                   ddm::core::optimal_oblivious_winning_probability(n, t).to_double(), 15)
            << ".\n";
  return 0;
}
