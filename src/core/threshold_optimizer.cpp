#include "core/threshold_optimizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/nonoblivious.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace ddm::core {

namespace {

// Search metrics: probes evaluated, strictly-improving moves accepted, and
// step halvings (the "restart" of the compass step schedule when no probe
// improves). See docs/observability.md.
struct OptimizerMetrics {
  obs::Counter probes = obs::counter("optimizer.probes");
  obs::Counter accepts = obs::counter("optimizer.accepts");
  obs::Counter step_halvings = obs::counter("optimizer.step_halvings");

  static const OptimizerMetrics& get() {
    static const OptimizerMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThresholdSearchResult maximize_thresholds(std::vector<double> start, double t,
                                          double initial_step, double tolerance,
                                          std::uint32_t max_evaluations) {
  if (start.empty()) throw std::invalid_argument("maximize_thresholds: empty start");
  if (start.size() > 16) throw std::invalid_argument("maximize_thresholds: n too large");
  if (tolerance <= 0.0 || initial_step <= 0.0) {
    throw std::invalid_argument("maximize_thresholds: step/tolerance must be > 0");
  }
  for (double& a : start) a = std::clamp(a, 0.0, 1.0);
  DDM_SPAN("optimizer.search", {{"n", static_cast<std::int64_t>(start.size())}});
  const OptimizerMetrics& metrics = OptimizerMetrics::get();

  ThresholdSearchResult result;
  result.thresholds = std::move(start);
  result.value = threshold_winning_probability(result.thresholds, t);
  result.evaluations = 1;
  double step = initial_step;

  // Generating-set search: each iteration evaluates the (up to) 2n compass
  // probes around the incumbent concurrently on the shared pool, then applies
  // a deterministic acceptance rule — move to the best strictly-improving
  // probe (ties broken by the fixed probe order: axis 0 +, axis 0 −, axis 1
  // +, ...), halve the step when none improves. The probe list, the
  // acceptance decision, and the evaluation count are all independent of how
  // many workers evaluated the probes.
  struct Probe {
    std::size_t axis;
    double candidate;
    double value;
  };
  std::vector<Probe> probes;
  std::vector<std::vector<double>> probe_points;
  while (step >= tolerance && result.evaluations < max_evaluations) {
    probes.clear();
    for (std::size_t i = 0; i < result.thresholds.size(); ++i) {
      for (const double direction : {+1.0, -1.0}) {
        const double original = result.thresholds[i];
        const double candidate = std::clamp(original + direction * step, 0.0, 1.0);
        if (candidate != original) probes.push_back({i, candidate, 0.0});
      }
    }
    // Truncating to the remaining budget keeps the evaluation cap exact; the
    // surviving prefix is the same one the serial sweep would have tried.
    const std::size_t budget = max_evaluations - result.evaluations;
    if (probes.size() > budget) probes.resize(budget);
    if (probes.empty()) break;
    // One batch call evaluates the whole compass star across the pool; each
    // value is bitwise equal to a single-point call, so the accepted iterates
    // do not depend on the thread count.
    probe_points.resize(probes.size());
    for (std::size_t p = 0; p < probes.size(); ++p) {
      probe_points[p] = result.thresholds;
      probe_points[p][probes[p].axis] = probes[p].candidate;
    }
    const std::vector<double> probe_values = threshold_winning_probability_batch(probe_points, t);
    for (std::size_t p = 0; p < probes.size(); ++p) probes[p].value = probe_values[p];
    result.evaluations += static_cast<std::uint32_t>(probes.size());
    metrics.probes.add(probes.size());
    const Probe* best = &probes[0];
    for (const Probe& probe : probes) {
      if (probe.value > best->value) best = &probe;
    }
    if (best->value > result.value) {
      result.thresholds[best->axis] = best->candidate;
      result.value = best->value;
      metrics.accepts.add();
    } else {
      step *= 0.5;
      metrics.step_halvings.add();
    }
  }
  result.final_step = step;
  return result;
}

ThresholdSearchResult maximize_symmetric_threshold(std::uint32_t n, double t, double start,
                                                   double initial_step, double tolerance) {
  if (n == 0) throw std::invalid_argument("maximize_symmetric_threshold: n == 0");
  if (tolerance <= 0.0 || initial_step <= 0.0) {
    throw std::invalid_argument("maximize_symmetric_threshold: step/tolerance must be > 0");
  }
  DDM_SPAN("optimizer.search", {{"n", static_cast<std::int64_t>(n)}, {"symmetric", 1}});
  const OptimizerMetrics& metrics = OptimizerMetrics::get();
  double beta = std::clamp(start, 0.0, 1.0);
  double value = symmetric_threshold_winning_probability(n, beta, t);
  std::uint32_t evaluations = 1;
  double step = initial_step;
  while (step >= tolerance) {
    bool improved = false;
    for (const double direction : {+1.0, -1.0}) {
      const double candidate = std::clamp(beta + direction * step, 0.0, 1.0);
      if (candidate == beta) continue;
      const double candidate_value = symmetric_threshold_winning_probability(n, candidate, t);
      ++evaluations;
      metrics.probes.add();
      if (candidate_value > value) {
        beta = candidate;
        value = candidate_value;
        improved = true;
        metrics.accepts.add();
        break;
      }
    }
    if (!improved) {
      step *= 0.5;
      metrics.step_halvings.add();
    }
  }
  ThresholdSearchResult result;
  result.thresholds.assign(n, beta);
  result.value = value;
  result.evaluations = evaluations;
  result.final_step = step;
  return result;
}

}  // namespace ddm::core
