// Optimality-condition table (Corollary 4.2 + Theorem 5.2): shows the exact
// gradient of the oblivious winning probability vanishing at alpha = 1/2 (and
// not elsewhere), and the non-oblivious optimality polynomials per n — whose
// roots differ across n, demonstrating that Theorem 5.2's conditions admit no
// uniform solution.
#include <iostream>

#include "bench_common.hpp"
#include "core/optimality.hpp"
#include "core/symmetric_threshold.hpp"
#include "util/table.hpp"

int main() {
  using ddm::util::Rational;
  ddm::bench::print_banner("Table: optimality conditions",
                           "Corollary 4.2 (oblivious) and Theorem 5.2 (non-oblivious)");

  std::cout << "Oblivious conditions: max_k |dP/dalpha_k| at probe vectors (t = n/3)\n";
  ddm::util::Table oblivious{{"n", "alpha=1/2", "alpha=1/4", "alpha=3/4", "alpha=9/10"}};
  for (std::uint32_t n = 2; n <= 10; ++n) {
    const Rational t{n, 3};
    std::vector<std::string> row{std::to_string(n)};
    for (const Rational& probe : {Rational(1, 2), Rational(1, 4), Rational(3, 4),
                                 Rational(9, 10)}) {
      const std::vector<Rational> alpha(n, probe);
      row.push_back(ddm::util::fmt(
          ddm::core::stationarity_residual(alpha, t).to_double(), 8));
    }
    oblivious.add_row(std::move(row));
  }
  oblivious.print(std::cout);
  std::cout << "(Exactly zero only at alpha = 1/2 — Theorem 4.3.)\n\n";

  std::cout << "Diagonal condition in r = alpha/(1-alpha) (Section 4.2): coefficients\n"
               "c_k = C(n-1,k)(phi(k+1) - phi(k)) are antisymmetric, so r = 1 (alpha = 1/2)\n"
               "is always a root (t = n/3):\n";
  ddm::util::Table diagonal{{"n", "coefficients c_0..c_{n-1}", "antisymmetric", "sum (root at r=1)"}};
  for (std::uint32_t n = 2; n <= 7; ++n) {
    const auto c = ddm::core::diagonal_condition_coefficients(n, Rational{n, 3});
    std::string text;
    bool antisym = true;
    Rational sum{0};
    for (std::uint32_t k = 0; k < n; ++k) {
      if (!text.empty()) text += ", ";
      text += c[k].to_string();
      sum += c[k];
      if (c[k] != -c[n - 1 - k]) antisym = false;
    }
    diagonal.add_row({std::to_string(n), text, antisym ? "YES" : "NO", sum.to_string()});
  }
  diagonal.print(std::cout);
  std::cout << "\n";

  std::cout << "Non-oblivious optimality polynomials P'(beta) on the optimal piece, t = n/3:\n";
  ddm::util::Table nonoblivious{{"n", "optimality condition", "beta*", "P(beta*)"}};
  for (std::uint32_t n = 2; n <= 8; ++n) {
    const auto opt =
        ddm::core::SymmetricThresholdAnalysis::build(n, Rational{n, 3}).optimize();
    nonoblivious.add_row({std::to_string(n), opt.optimality_condition.to_string("b"),
                          ddm::util::fmt(opt.beta.approx(), 6),
                          ddm::util::fmt(opt.value.to_double(), 6)});
  }
  nonoblivious.print(std::cout);
  std::cout << "(The conditions — and their roots — depend on n: no uniform solution,\n"
               "confirming Theorem 5.2's non-uniformity conclusion. For n = 3 the\n"
               "condition is (21/2)(beta^2 - 2 beta + 6/7); for n = 4 it matches the\n"
               "paper's cubic with the constant's sign corrected.)\n";
  return 0;
}
