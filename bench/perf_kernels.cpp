// Google-benchmark microbenchmarks for the library's computational kernels:
// Proposition 2.2 volumes, the Poisson-binomial collapse of Theorem 4.1, the
// symmetric Theorem 5.1 evaluator, symbolic piecewise construction, root
// isolation, and the Monte Carlo trial loop.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/certified.hpp"
#include "core/communication.hpp"
#include "core/deviating.hpp"
#include "core/interval_rules.hpp"
#include "core/nonoblivious.hpp"
#include "core/oblivious.hpp"
#include "core/protocol.hpp"
#include "core/randomized_rules.hpp"
#include "core/reference_kernels.hpp"
#include "core/symmetric_threshold.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "core/threshold_optimizer.hpp"
#include "poly/compiled.hpp"
#include "poly/interpolate.hpp"
#include "geom/volume.hpp"
#include "poly/roots.hpp"
#include "prob/rng.hpp"
#include "sim/monte_carlo.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace {

using ddm::util::Rational;

void BM_SimplexBoxVolumeDouble(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<double> sigma(m);
  std::vector<double> pi(m);
  for (std::size_t l = 0; l < m; ++l) {
    sigma[l] = 1.0 + 0.1 * static_cast<double>(l);
    pi[l] = 0.5 + 0.03 * static_cast<double>(l);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::geom::simplex_box_volume_double(sigma, pi));
  }
}
BENCHMARK(BM_SimplexBoxVolumeDouble)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_SimplexBoxVolumeExact(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> sigma;
  std::vector<Rational> pi;
  for (std::size_t l = 0; l < m; ++l) {
    sigma.emplace_back(static_cast<std::int64_t>(10 + l), 10);
    pi.emplace_back(static_cast<std::int64_t>(5 + l), 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::geom::simplex_box_volume(sigma, pi));
  }
}
BENCHMARK(BM_SimplexBoxVolumeExact)->Arg(4)->Arg(8)->Arg(12);

// Naive O(m·2^m) kernels (src/core/reference_kernels.hpp) benchmarked next
// to the Gray-code production kernels above so the speedup stays visible in
// every BENCH_kernels.json snapshot.
void BM_SimplexBoxVolumeDoubleReference(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<double> sigma(m);
  std::vector<double> pi(m);
  for (std::size_t l = 0; l < m; ++l) {
    sigma[l] = 1.0 + 0.1 * static_cast<double>(l);
    pi[l] = 0.5 + 0.03 * static_cast<double>(l);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::reference::simplex_box_volume_double(sigma, pi));
  }
}
BENCHMARK(BM_SimplexBoxVolumeDoubleReference)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_GeneralThresholdDoubleReference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = 0.4 + 0.03 * static_cast<double>(i);
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::reference::threshold_winning_probability(a, t));
  }
}
BENCHMARK(BM_GeneralThresholdDoubleReference)->Arg(4)->Arg(8)->Arg(12);

void BM_ObliviousWinningDp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> alpha(n, 0.45);
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::oblivious_winning_probability(alpha, t));
  }
}
BENCHMARK(BM_ObliviousWinningDp)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

void BM_ObliviousWinningExact(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Rational> alpha(n, Rational(9, 20));
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::oblivious_winning_probability(alpha, t));
  }
}
BENCHMARK(BM_ObliviousWinningExact)->Arg(4)->Arg(8)->Arg(12);

void BM_SymmetricThresholdDouble(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddm::core::symmetric_threshold_winning_probability(n, 0.6, t));
  }
}
BENCHMARK(BM_SymmetricThresholdDouble)->Arg(4)->Arg(8)->Arg(16);

void BM_GeneralThresholdDouble(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = 0.4 + 0.03 * static_cast<double>(i);
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::threshold_winning_probability(a, t));
  }
}
BENCHMARK(BM_GeneralThresholdDouble)->Arg(4)->Arg(8)->Arg(12);

// Same kernel with tracing + metrics collection enabled: together with the
// plain run above this pins the observability overhead in BENCH_kernels.json.
// The disabled-mode run (BM_GeneralThresholdDouble itself) is the one the
// <= 3% budget applies to — obs is compiled in, just switched off there.
void BM_GeneralThresholdDoubleTraced(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = 0.4 + 0.03 * static_cast<double>(i);
  const double t = static_cast<double>(n) / 3.0;
  ddm::obs::start_tracing();
  ddm::obs::set_metrics_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::threshold_winning_probability(a, t));
  }
  ddm::obs::set_metrics_enabled(false);
  ddm::obs::stop_tracing();
}
BENCHMARK(BM_GeneralThresholdDoubleTraced)->Arg(4)->Arg(8)->Arg(12);

void BM_SymbolicPiecewiseBuild(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::SymmetricThresholdAnalysis::build(n, t));
  }
}
BENCHMARK(BM_SymbolicPiecewiseBuild)->Arg(3)->Arg(5)->Arg(7)->Arg(12)->Arg(16);

void BM_SymbolicOptimize(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const auto analysis = ddm::core::SymmetricThresholdAnalysis::build(
      n, Rational{static_cast<std::int64_t>(n), 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.optimize());
  }
}
BENCHMARK(BM_SymbolicOptimize)->Arg(3)->Arg(5)->Arg(7)->Arg(12)->Arg(16);

void BM_RootIsolation(benchmark::State& state) {
  // Wilkinson-style polynomial with roots k/10, k = 1..d (Descartes'
  // rule on Bernstein coefficients; 1/2 is a subdivision point).
  const int d = static_cast<int>(state.range(0));
  ddm::poly::QPoly p{Rational{1}};
  for (int k = 1; k <= d; ++k) {
    p = p * ddm::poly::QPoly{std::vector<Rational>{Rational(-k, 10), Rational{1}}};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::poly::isolate_roots(p, Rational{0}, Rational{1}));
  }
}
BENCHMARK(BM_RootIsolation)->Arg(4)->Arg(6)->Arg(8);

void BM_IntervalRulesExact(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<ddm::core::IntervalRule> rules(
      n, ddm::core::IntervalRule::two_interval(Rational(1, 4), Rational(1, 2),
                                               Rational(3, 4)));
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::interval_rules_winning_probability(rules, t));
  }
}
BENCHMARK(BM_IntervalRulesExact)->Arg(3)->Arg(5)->Arg(7);

void BM_StepRulesDouble(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Rational> probs{Rational{1}, Rational(2, 3), Rational(1, 3),
                                    Rational{0}};
  const std::vector<ddm::core::StepRule> rules(n, ddm::core::StepRule::uniform_grid(probs));
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::step_rules_winning_probability(rules, t));
  }
}
BENCHMARK(BM_StepRulesDouble)->Arg(3)->Arg(5)->Arg(7);

void BM_LagrangeInterpolation(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  std::vector<std::pair<Rational, Rational>> points;
  for (int i = 0; i <= degree; ++i) {
    const Rational x{i + 1, degree + 2};
    points.emplace_back(x, x * x - Rational(1, 3) * x + Rational(7, 5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::poly::lagrange_interpolate(points));
  }
}
BENCHMARK(BM_LagrangeInterpolation)->Arg(4)->Arg(8)->Arg(12);

void BM_InputBankEvaluation(benchmark::State& state) {
  const std::size_t samples = static_cast<std::size_t>(state.range(0));
  ddm::prob::Rng rng{1};
  const ddm::core::InputBank bank{3, samples, rng};
  const ddm::core::WeightedThresholdProtocol protocol{
      ddm::core::VisibilityPattern::full(3)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.winning_fraction(protocol, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_InputBankEvaluation)->Arg(10000)->Arg(100000);

void BM_MonteCarloTrials(benchmark::State& state) {
  const auto protocol = ddm::core::SingleThresholdProtocol::symmetric(
      static_cast<std::size_t>(state.range(0)), Rational(3, 5));
  ddm::prob::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddm::sim::estimate_winning_probability(protocol, 1.0, 10000, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_MonteCarloTrials)->Arg(3)->Arg(8)->Arg(12);

// The deviating estimator with k = n/4 deviators: k + 1 adversary
// strategies of 10,000 trials each, one after the other on one stream.
void BM_MonteCarloDeviating(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t deviators = n / 4;
  ddm::prob::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::estimate_worst_case_deviating(
        n, deviators, 0.5, static_cast<double>(n) / 3.0, 10000, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000 *
                          static_cast<std::int64_t>(deviators + 1));
}
BENCHMARK(BM_MonteCarloDeviating)->Arg(8)->Arg(12);

// The `mc` engine on a heterogeneous game: n − 1 unit ranges and one of
// width 2, one point at β = 1/2 with 10,000 trials on one stream.
void BM_MonteCarloHeterogeneous(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<Rational> ranges(n, Rational{1});
  ranges.back() = Rational{2};
  auto request = ddm::engine::EvalRequest::symmetric(n, Rational(n, 3), {0.5});
  request.scenario = ddm::engine::Scenario::heterogeneous(std::move(ranges));
  request.trials = 10000;
  const ddm::engine::Evaluator* mc = ddm::engine::Registry::instance().find("mc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc->evaluate(request));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_MonteCarloHeterogeneous)->Arg(8)->Arg(12);

// Same workload fanned across the pool: near-linear scaling is the target,
// and the wins tally is bitwise identical to the serial run by construction.
void BM_MonteCarloTrialsParallel(benchmark::State& state) {
  constexpr std::uint64_t kTrials = 1000000;
  const auto protocol = ddm::core::SingleThresholdProtocol::symmetric(
      static_cast<std::size_t>(state.range(0)), Rational(3, 5));
  ddm::prob::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::sim::estimate_winning_probability(
        protocol, 1.0, kTrials, rng, ddm::util::parallelism()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_MonteCarloTrialsParallel)->Arg(3)->Arg(8)->UseRealTime();

// Serial baseline at the same trial count, for the scaling ratio.
void BM_MonteCarloTrialsSerial1M(benchmark::State& state) {
  constexpr std::uint64_t kTrials = 1000000;
  const auto protocol = ddm::core::SingleThresholdProtocol::symmetric(
      static_cast<std::size_t>(state.range(0)), Rational(3, 5));
  ddm::prob::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddm::sim::estimate_winning_probability(protocol, 1.0, kTrials, rng, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_MonteCarloTrialsSerial1M)->Arg(3)->Arg(8)->UseRealTime();

// Batch grid evaluation through the pool (the `ddm_cli sweep` workload).
void BM_ThresholdBatchParallel(benchmark::State& state) {
  const std::size_t n = 8;
  const std::size_t grid = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> points(grid);
  for (std::size_t k = 0; k < grid; ++k) {
    points[k].assign(n, static_cast<double>(k) / static_cast<double>(grid));
  }
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::threshold_winning_probability_batch(points, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid));
}
BENCHMARK(BM_ThresholdBatchParallel)->Arg(32)->Arg(128)->UseRealTime();

// Serial baseline for the same grid.
void BM_ThresholdBatchSerial(benchmark::State& state) {
  const std::size_t n = 8;
  const std::size_t grid = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> points(grid);
  for (std::size_t k = 0; k < grid; ++k) {
    points[k].assign(n, static_cast<double>(k) / static_cast<double>(grid));
  }
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& point : points) {
      acc += ddm::core::threshold_winning_probability(point, t);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid));
}
BENCHMARK(BM_ThresholdBatchSerial)->Arg(32)->Arg(128);

// Certified-mode evaluation: the escalation ladder on top of the symmetric
// Theorem 5.1 kernel. Every n here settles on tier 0, the positive double
// sum with its a priori bound (O(n³) at worst, so n = 64 tracks its growth).
void BM_CertifiedSymmetricThreshold(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const Rational beta{3, 8};
  const Rational t{static_cast<std::int64_t>(n), 4};  // dyadic: tier 0 eligible
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddm::core::certified_symmetric_threshold_winning_probability(n, beta, t));
  }
}
BENCHMARK(BM_CertifiedSymmetricThreshold)->Arg(8)->Arg(16)->Arg(24)->Arg(64);

void BM_CertifiedGeneralThreshold(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> a;
  for (std::size_t i = 0; i < n; ++i) {
    a.emplace_back(static_cast<std::int64_t>(13 + i), 32);  // dyadic: tier 0 eligible
  }
  const Rational t{static_cast<std::int64_t>(n), 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::certified_threshold_winning_probability(a, t));
  }
}
// Stays in the compensated-double regime (dyadic inputs); the k/7 family
// below measures the exact rung.
BENCHMARK(BM_CertifiedGeneralThreshold)->Arg(4)->Arg(8);

// The exact integer sums. Thresholds k/7 are not doubles, so the certified
// ladders decline tier 0 and answer on the exact rung.
void BM_GeneralThresholdExact(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> a;
  for (std::size_t i = 0; i < n; ++i) a.emplace_back(static_cast<std::int64_t>(2 + i % 5), 7);
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::threshold_winning_probability(a, t));
  }
}
BENCHMARK(BM_GeneralThresholdExact)->Arg(4)->Arg(8);

void BM_SymmetricThresholdExact(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const Rational beta{45, 64};
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::symmetric_threshold_winning_probability(n, beta, t));
  }
}
BENCHMARK(BM_SymmetricThresholdExact)->Arg(8)->Arg(24)->Arg(64)->Arg(128);

void BM_CertifiedGeneralThresholdExact(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> a;
  for (std::size_t i = 0; i < n; ++i) a.emplace_back(static_cast<std::int64_t>(2 + i % 5), 7);
  const Rational t{static_cast<std::int64_t>(n), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::certified_threshold_winning_probability(a, t));
  }
}
BENCHMARK(BM_CertifiedGeneralThresholdExact)->Arg(4)->Arg(8);

void BM_CertifiedSimplexBoxVolumeExact(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> sigma;
  std::vector<Rational> pi;
  for (std::size_t l = 0; l < m; ++l) {
    sigma.emplace_back(static_cast<std::int64_t>(10 + l), 7);
    pi.emplace_back(static_cast<std::int64_t>(3 + l % 4), 11);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::geom::certified_simplex_box_volume(sigma, pi));
  }
}
BENCHMARK(BM_CertifiedSimplexBoxVolumeExact)->Arg(8)->Arg(12);

void BM_CertifiedSimplexBoxVolume(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<Rational> sigma;
  std::vector<Rational> pi;
  for (std::size_t l = 0; l < m; ++l) {
    sigma.emplace_back(static_cast<std::int64_t>(16 + l), 16);  // dyadic sides
    pi.emplace_back(static_cast<std::int64_t>(8 + l), 16);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::geom::certified_simplex_box_volume(sigma, pi));
  }
}
BENCHMARK(BM_CertifiedSimplexBoxVolume)->Arg(4)->Arg(8)->Arg(12);

// Full compass search with parallel probe evaluation (n = 6 → 12 concurrent
// Theorem 5.1 evaluations per iteration).
void BM_ThresholdSearchParallelProbes(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::maximize_thresholds(
        std::vector<double>(n, 0.5), t, 0.25, 1e-6, 4000));
  }
}
BENCHMARK(BM_ThresholdSearchParallelProbes)->Arg(4)->Arg(6)->UseRealTime();

// --- Compiled evaluation pipeline ---------------------------------------
// The `ddm_cli sweep --engine=compiled` workload: lower the exact symmetric
// piecewise polynomial once, then evaluate the grid through the certified
// Horner plan. Per-point cost (items/s) is the number to compare against
// BM_GeneralThresholdDouble/12 — one iteration there is one point through
// the O(3^n) kernel, and the acceptance bar is a >= 20x gap at n = 12.
void BM_SweepCompiled(benchmark::State& state) {
  // Pinned to the scalar Horner path: this family is the denominator of the
  // BM_SweepCompiledSimd speedup ratio run_bench.sh --check enforces, and
  // stays comparable with pre-SIMD BENCH_kernels.json baselines.
  const ddm::util::simd::ScopedForceWidth force_scalar{1};
  const std::size_t steps = static_cast<std::size_t>(state.range(0));
  const auto analysis =
      ddm::core::SymmetricThresholdAnalysis::build(12, Rational{4});
  const auto plan = ddm::poly::CompiledPiecewise::lower(analysis.winning_probability());
  std::vector<double> betas(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    betas[k] = static_cast<double>(k) / static_cast<double>(steps);
  }
  std::vector<double> out(betas.size());
  for (auto _ : state) {
    plan.eval_grid(betas, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(betas.size()));
}
// MinTime on both compiled-sweep families: per-iteration times are a few
// microseconds, so the default sampling window is short enough for AVX-512
// frequency ramps (triggered by neighbouring benchmarks) to skew a sample —
// the Simd-vs-scalar gate in run_bench.sh --check needs stable numbers.
BENCHMARK(BM_SweepCompiled)->Arg(1024)->Arg(10000)->UseRealTime()->MinTime(1.0);

// Same symmetric n = 12 sweep through the batch kernel — the `--engine=batch`
// path, one serial Gray-code kernel call per point fanned across the pool,
// and the denominator of the compiled-vs-batch ratio on the exact CLI
// workload (small grid: one point costs 2·3^12 subset visits).
void BM_SweepKernel(benchmark::State& state) {
  const std::size_t n = 12;
  const std::size_t steps = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> points(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    points[k].assign(n, static_cast<double>(k) / static_cast<double>(steps));
  }
  const double t = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::threshold_winning_probability_batch(points, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_SweepKernel)->Arg(8)->UseRealTime();

// Compass search after probe batching: all 2n probes of an iteration go
// through one threshold_winning_probability_batch call, which spreads them
// over the pool in blocks of kThresholdBatchBlock, bitwise-identical to the
// serial probes.
void BM_OptimizerBatched(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double t = static_cast<double>(n) / 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddm::core::maximize_thresholds(
        std::vector<double>(n, 0.45), t, 0.25, 1e-6, 2000));
  }
}
BENCHMARK(BM_OptimizerBatched)->Arg(6)->Arg(8)->UseRealTime();

// --- SIMD hot path -------------------------------------------------------
// The vectorized counterpart of BM_SweepCompiled: the identical workload
// forced to the widest compiled pack width this host executes
// (util/simd.hpp), so the family-vs-family cpu_time ratio IS the lane
// speedup. The results are bitwise identical to the scalar family — the
// packs replicate the scalar op sequence per lane — so the ratio measures
// dispatch alone. scripts/run_bench.sh --check enforces >= 2x
// (docs/performance.md §4).
void BM_SweepCompiledSimd(benchmark::State& state) {
  const ddm::util::simd::ScopedForceWidth force_native{
      ddm::util::simd::native_width()};
  const std::size_t steps = static_cast<std::size_t>(state.range(0));
  const auto analysis =
      ddm::core::SymmetricThresholdAnalysis::build(12, Rational{4});
  const auto plan = ddm::poly::CompiledPiecewise::lower(analysis.winning_probability());
  std::vector<double> betas(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    betas[k] = static_cast<double>(k) / static_cast<double>(steps);
  }
  std::vector<double> out(betas.size());
  for (auto _ : state) {
    plan.eval_grid(betas, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(betas.size()));
  state.counters["simd_width"] =
      static_cast<double>(ddm::util::simd::dispatch_width());
}
BENCHMARK(BM_SweepCompiledSimd)->Arg(1024)->Arg(10000)->UseRealTime()->MinTime(1.0);

// --- tolerance-driven auto dispatch (engine/policy.hpp) ---------------------
//
// The mixed mid-n workload the paper's serving story lives on: four
// symmetric instances whose compiled plans are resident (pre-lowered). auto
// takes a resident plan exactly when its certificate is <= the REQUEST
// tolerance. At 1e-5 every certificate clears (n = 10: 5.2e-8, n = 12:
// 3.3e-6), so BM_AutoDispatch answers all four from the plans — nanoseconds
// per point. At the default 1e-9 (BM_AutoDispatchTight) n = 10 and n = 12
// go to the certified ladder — microseconds per point. run_bench.sh --check
// gates tight/auto >= 1.5x and forced-best/auto >= 0.9x.

/// The four workload instances with 2048-point beta grids at `tolerance`
/// (2048 points amortize the per-request select() cost the same way real
/// sweep/serve batches do).
std::vector<ddm::engine::EvalRequest> dispatch_workload(const Rational& tolerance) {
  std::vector<ddm::engine::EvalRequest> requests;
  const std::pair<std::uint32_t, Rational> instances[] = {
      {6, Rational{2}}, {8, Rational{8, 3}}, {10, Rational{10, 3}}, {12, Rational{4}}};
  for (const auto& [n, t] : instances) {
    ddm::engine::EvalRequest request;
    request.n = n;
    request.t = t;
    request.tolerance = tolerance;
    request.betas.reserve(2048);
    for (std::size_t k = 0; k < 2048; ++k) {
      request.betas.push_back(static_cast<double>(k + 1) / 2049.0);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

void run_dispatch_workload(benchmark::State& state, const ddm::engine::EnginePolicy& policy,
                           const Rational& tolerance) {
  const std::vector<ddm::engine::EvalRequest> workload = dispatch_workload(tolerance);
  // Pre-lower the plans so every variant measures dispatch + evaluation,
  // not one-time exact-algebra lowering.
  for (const ddm::engine::EvalRequest& request : workload) {
    try {
      (void)ddm::engine::PlanCache::instance().get_or_lower(request.n, request.t);
    } catch (const std::exception&) {
    }
  }
  std::int64_t points = 0;
  for (auto _ : state) {
    double accumulated = 0.0;
    for (const ddm::engine::EvalRequest& request : workload) {
      const ddm::engine::Selection selection = ddm::engine::select(policy, request);
      const ddm::engine::EvalOutcome outcome = selection.evaluator->evaluate(request);
      accumulated += outcome.values.front();
      points += static_cast<std::int64_t>(outcome.values.size());
    }
    benchmark::DoNotOptimize(accumulated);
  }
  state.SetItemsProcessed(points);
}

// The paper's workload under `auto` on a cold plan cache: the 33-point
// t = n/3 grid of the end-to-end sweep benchmark (beta in [0.31, 0.70]).
// Symmetric requests never touch the O(3^n) kernel and auto lowers no plan
// at any n: every point settles on the certified ladder's tier 0, the
// positive double sum (O(n³) at worst).
void sweep_symmetric_cold(benchmark::State& state, std::size_t steps, double lo, double hi) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<double> betas(steps + 1);
  for (std::size_t k = 0; k < betas.size(); ++k) {
    betas[k] = lo + (hi - lo) * static_cast<double>(k) / static_cast<double>(steps);
  }
  const auto request = ddm::engine::EvalRequest::symmetric(
      n, Rational{static_cast<std::int64_t>(n), 3}, betas);
  for (auto _ : state) {
    ddm::engine::PlanCache::instance().clear();
    const ddm::engine::Selection selection =
        ddm::engine::select(ddm::engine::EnginePolicy{}, request);
    benchmark::DoNotOptimize(selection.evaluator->evaluate(request).values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(betas.size()));
}

void BM_SweepSymmetric(benchmark::State& state) { sweep_symmetric_cold(state, 32, 0.31, 0.70); }
BENCHMARK(BM_SweepSymmetric)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(48)
    ->Arg(128)
    ->Arg(256)
    ->UseRealTime();

// The same cold `auto` dispatch over a dense 16,385-point grid on [0, 1]
// (`ddm_cli sweep n n/3 0 1 16384`): where a lowered plan would be
// amortized best, the ladder must stay competitive with paying the lowering.
void BM_SweepSymmetricDense(benchmark::State& state) {
  sweep_symmetric_cold(state, 16384, 0.0, 1.0);
}
BENCHMARK(BM_SweepSymmetricDense)->Arg(4)->Arg(8)->UseRealTime();

void BM_AutoDispatch(benchmark::State& state) {
  run_dispatch_workload(state, ddm::engine::EnginePolicy{}, Rational{1, 100000});
}
BENCHMARK(BM_AutoDispatch)->UseRealTime();

void BM_AutoDispatchTight(benchmark::State& state) {
  run_dispatch_workload(state, ddm::engine::EnginePolicy{}, Rational{1, 1000000000});
}
BENCHMARK(BM_AutoDispatchTight)->UseRealTime();

void BM_AutoDispatchForcedBest(benchmark::State& state) {
  // The best single forced engine for this workload: every certificate
  // clears 1e-5, so a user who hand-tuned would write --engine=compiled.
  ddm::engine::EnginePolicy policy;
  policy.engine = "compiled";
  run_dispatch_workload(state, policy, Rational{1, 100000});
}
BENCHMARK(BM_AutoDispatchForcedBest)->UseRealTime();

}  // namespace

// Custom main so the JSON context records the build type of BOTH halves of
// the measured code. The stock `library_build_type` field describes how the
// google-benchmark library was compiled (a debug build on this image — out
// of our control and irrelevant to kernel timings), not perf_kernels or
// libddm — which is how a baseline benchmarking unoptimised kernels once
// got committed without any visible marker, and how a second hole stayed
// open after the first fix: `ddm_build_type` only proves THIS translation
// unit saw NDEBUG, while the kernels live in libddm, which a stale or
// mixed-configuration tree can supply as a debug build. `ddm::util::
// build_type()` is compiled inside libddm, so `ddm_library_build_type`
// stamps the library actually linked. scripts/run_bench.sh refuses to
// record or compare unless BOTH stamps say "release".
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("ddm_build_type", "release");
#else
  benchmark::AddCustomContext("ddm_build_type", "debug");
#endif
  benchmark::AddCustomContext("ddm_library_build_type", ddm::util::build_type());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
