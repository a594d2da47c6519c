// volume — Vol(simplex ∩ box), Proposition 2.2.
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "geom/volume.hpp"

namespace ddm::cli {

int run_volume(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t m = parse_u32("m", args[1]);
  if (m < 1) throw BadArgument("invalid m '" + args[1] + "' (volume needs m >= 1)");
  if (args.size() != 2 + 2 * static_cast<std::size_t>(m)) {
    throw BadArgument("invalid volume argument count for m '" + args[1] + "' (expected " +
                      std::to_string(2 * m) + " sides, got " + std::to_string(args.size() - 2) +
                      ")");
  }
  std::vector<util::Rational> sigma;
  std::vector<util::Rational> pi;
  for (std::uint32_t l = 0; l < m; ++l) {
    sigma.push_back(parse_rational("sigma", args[2 + l]));
  }
  for (std::uint32_t l = 0; l < m; ++l) {
    pi.push_back(parse_rational("pi", args[2 + m + l]));
  }
  std::cout << "Vol(Sigma(sigma) ∩ Pi(pi))  [Proposition 2.2]\n";
  if (options.certify) {
    ddm::EvalPolicy policy;
    policy.tolerance = *options.certify;
    const auto result = geom::certified_simplex_box_volume(sigma, pi, policy);
    print_certified(result, policy.tolerance);
    return result.met_tolerance ? 0 : 3;
  }
  const util::Rational volume = geom::simplex_box_volume(sigma, pi);
  std::cout << "  = " << volume << " = " << volume.to_double() << "\n"
            << "  simplex volume = " << geom::simplex_volume(sigma) << ", box volume = "
            << geom::box_volume(pi) << "\n";
  return 0;
}

}  // namespace ddm::cli
