// perfbench_replay — the traced half of the benchmark.
//
// Usage:
//   perfbench_replay --provenance
//   perfbench_replay <ops-file> <trace-out.json>
//
// `--provenance` prints the library's build type, the dispatched SIMD width
// and the evaluation thread count as one JSON line; run.py refuses to
// measure a library that is not a release build.
//
// Otherwise the program replays a workload's operations in-process through
// the library's public layer functions, twice: once with span recording off
// and once with it on. Each layer call of the traced pass becomes one span
// (name, start, duration, parent span, operation id); the spans stay in
// memory and are written as Chrome trace_event JSON to <trace-out.json> at
// the end. The per-layer metrics are aggregated from those spans and printed
// as one JSON object on stdout, with trace.overhead_ratio = traced pass wall
// time / untraced pass wall time. A first, discarded pass warms the process
// (thread pools, allocator); every pass starts from an empty plan cache, so
// the two measured passes do the same work.
//
// Ops file, one operation per line (written by run.py):
//   sweep <n> <t> <beta>...            a ddm_cli sweep: build, lower, cold
//                                      select, evaluate the grid
//   request <flat-json>                one ddm_serve request line: parse,
//                                      select, evaluate, encode, and the same
//                                      line through EvalService::handle_line
//   netprobe <flat-json>               the same, for a workload with no
//                                      traffic of its own: its selections are
//                                      left out of the engine counts
//   lower <n> <t>                      piecewise build (core) + lowering (poly)
//   batch <n> <t> <beta>...            batch-kernel probe (core)
//   grid <n> <t> <beta>...             compiled eval_grid probe (poly)
//   mc <n> <t> <trials> <beta>...      Monte Carlo probe (sim)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/symmetric_threshold.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "engine/resilient.hpp"
#include "net/ndjson.hpp"
#include "net/service.hpp"
#include "poly/compiled.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "util/rational.hpp"
#include "util/simd.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ddm::util::Rational;

struct Span {
  std::string name;
  std::string engine;  // engine id for engine.* spans, else empty
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // id of the root span of the operation
  std::uint32_t n = 0;       // players of the instance the call served, 0 if none
  double work = 0;           // points (or trials) the call processed
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock, so the untraced pass runs the bare calls.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint32_t n = 0, std::string engine = {},
          double work = 0)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = tracer_.spans_.size();
      Span span;
      span.name = std::move(name);
      span.engine = std::move(engine);
      span.n = n;
      span.work = work;
      span.id = index_ + 1;
      span.parent = tracer_.stack_.empty() ? 0 : tracer_.stack_.back();
      span.op = tracer_.stack_.empty() ? span.id : tracer_.spans_[tracer_.stack_.front() - 1].id;
      tracer_.stack_.push_back(span.id);
      span.start_ns = tracer_.now_ns();
      tracer_.spans_.push_back(std::move(span));
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      Span& span = tracer_.spans_[index_];
      span.dur_ns = tracer_.now_ns() - span.start_ns;
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_work(double work) {
      if (tracer_.enabled_) tracer_.spans_[index_].work = work;
    }

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

struct Op {
  std::string kind;
  std::uint32_t n = 0;
  Rational t;
  std::uint64_t trials = 0;
  std::vector<double> betas;
  std::string line;  // request ops
};

std::vector<Op> read_ops(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open ops file '" + path + "'");
  std::vector<Op> ops;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    std::istringstream fields(text);
    Op op;
    fields >> op.kind;
    if (op.kind == "request" || op.kind == "netprobe") {
      op.line = text.substr(text.find('{'));
    } else {
      std::string t;
      fields >> op.n >> t;
      op.t = Rational::parse(t);
      if (op.kind == "mc") fields >> op.trials;
      for (double beta; fields >> beta;) op.betas.push_back(beta);
      if (op.betas.empty() && op.kind != "lower") {
        throw std::runtime_error("op without betas: " + text);
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// "n<players>", the per-instance key of the select_ms breakdown.
std::string instance_key(std::uint32_t n) {
  std::string key = std::to_string(n);
  key.insert(key.begin(), 'n');
  return key;
}

/// Counters that are not durations, gathered during the traced pass.
struct Counts {
  std::uint64_t instances = 0;  // cold selects
  std::uint64_t declined = 0;   // auto declined the compiled plan
  std::uint64_t lowered = 0;    // plans lowered by a select
  std::uint64_t lowered_declined = 0;
  std::uint64_t escalations = 0;
  std::map<std::string, std::uint64_t> chosen;  // points answered, by engine
  std::map<std::string, double> select_ms;      // per instance, cold

  /// Books one cold auto selection: `lowered` when it had to lower a plan.
  void selected(std::uint32_t n, double ms, bool lowered, bool fallback) {
    select_ms[instance_key(n)] += ms;
    ++instances;
    this->lowered += lowered ? 1 : 0;
    declined += fallback ? 1 : 0;
    lowered_declined += lowered && fallback ? 1 : 0;
  }
};

ddm::engine::EvalRequest request_from(const ddm::net::JsonObject& fields, std::string& engine) {
  using namespace ddm::net;
  ddm::engine::EvalRequest request;
  request.n = static_cast<std::uint32_t>(require_u64(fields, "n"));
  request.t = Rational::parse(require_string(fields, "t"));
  request.betas = {require_number(fields, "beta")};
  if (find(fields, "tol") != nullptr) {
    request.tolerance = Rational::from_double(get_number(fields, "tol", 1e-9));
  }
  request.trials = get_u64(fields, "trials", request.trials);
  request.seed = get_u64(fields, "seed", request.seed);
  engine = require_string(fields, "op") == "certify" ? "certified"
                                                      : get_string(fields, "engine", "auto");
  return request;
}

/// The symbolic half of a plan: the exact piecewise polynomial (core), then
/// its lowering to a double Horner plan (poly).
void replay_lower(std::uint32_t n, const Rational& t, Tracer& tracer) {
  using namespace ddm;
  std::optional<core::SymmetricThresholdAnalysis> analysis;
  {
    Tracer::Scope build(tracer, "core.piecewise_build", n);
    analysis = core::SymmetricThresholdAnalysis::build(n, t);
  }
  Tracer::Scope lower(tracer, "poly.lower", n);
  (void)poly::CompiledPiecewise::lower(analysis->winning_probability());
}

/// engine::select, timed; books it as a cold selection when `cold`.
ddm::engine::Selection replay_select(const ddm::engine::EnginePolicy& policy,
                                     const ddm::engine::EvalRequest& request, bool cold,
                                     Tracer& tracer, Counts* counts) {
  using namespace ddm;
  const auto before = engine::PlanCache::instance().stats();
  const auto started = Clock::now();
  std::optional<engine::Selection> selection;
  {
    Tracer::Scope select(tracer, "engine.select", request.n);
    selection = engine::select(policy, request);
  }
  if (counts == nullptr) return *selection;
  if (cold) {
    counts->selected(request.n,
                    std::chrono::duration<double, std::milli>(Clock::now() - started).count(),
                    engine::PlanCache::instance().stats().misses > before.misses,
                    selection->fallback);
  }
  counts->chosen[std::string(selection->id())] += request.betas.size();
  return *selection;
}

void replay_sweep(const Op& op, Tracer& tracer, Counts& counts) {
  using namespace ddm;
  replay_lower(op.n, op.t, tracer);
  engine::PlanCache::instance().clear();  // ddm_cli starts every sweep cold
  const auto request = engine::EvalRequest::symmetric(op.n, op.t, op.betas);
  const engine::Selection selection =
      replay_select(engine::EnginePolicy{}, request, true, tracer, &counts);
  Tracer::Scope evaluate(tracer, "engine.evaluate", op.n, std::string(selection.id()),
                         static_cast<double>(op.betas.size()));
  (void)selection.evaluator->evaluate(request);
}

void replay_request(const Op& op, Tracer& tracer, Counts& counts, ddm::net::EvalService& service,
                    std::map<std::string, bool>& seen_instances) {
  Counts* const booked = op.kind == "request" ? &counts : nullptr;
  using namespace ddm;
  net::JsonObject fields;
  {
    Tracer::Scope parse(tracer, "net.parse");
    fields = net::parse_flat_object(op.line);
  }
  const std::string kind = net::require_string(fields, "op");
  const auto n = static_cast<std::uint32_t>(net::require_u64(fields, "n"));
  net::JsonWriter reply;
  reply.field("id", net::get_string(fields, "id", "")).field("ok", true).field("op", kind);
  if (kind == "analyze") {
    Tracer::Scope analyze(tracer, "core.analyze", n);
    const Rational t = Rational::parse(net::require_string(fields, "t"));
    const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
    const auto optimum = analysis.optimize();
    reply.field("beta_star", optimum.beta.approx()).field("value", optimum.value.to_double());
  } else {
    std::string engine_id;
    const engine::EvalRequest request = request_from(fields, engine_id);
    engine::EnginePolicy policy;
    policy.engine = engine_id;
    const std::string instance = instance_key(n) + "/" + request.t.to_string();
    const bool cold = policy.is_auto() && seen_instances.emplace(instance, true).second;
    const engine::Selection selection = replay_select(policy, request, cold, tracer, booked);
    const std::string id(selection.id());
    engine::EvalOutcome outcome;
    {
      const double work = id == "mc" ? static_cast<double>(request.trials) : 1.0;
      Tracer::Scope evaluate(tracer, "engine.evaluate", n, id, work);
      outcome = selection.evaluator->evaluate(request);
    }
    if (booked != nullptr) booked->escalations += outcome.stats.escalations;
    if (id != "mc" && id != "certified") {
      engine::ResilientOptions options;
      options.policy = policy;
      Tracer::Scope resilient(tracer, "engine.evaluate_resilient", n, id);
      (void)engine::evaluate_resilient(options, request);
    }
    reply.field("value", outcome.values.at(0)).field("engine", outcome.engine_id);
  }
  {
    Tracer::Scope encode(tracer, "net.encode");
    (void)reply.str();
  }
  Tracer::Scope handle(tracer, "net.handle_line", n);
  (void)service.handle_line(op.line);
}

void replay_probe(const Op& op, Tracer& tracer) {
  using namespace ddm;
  auto request = engine::EvalRequest::symmetric(op.n, op.t, op.betas);
  const auto points = static_cast<double>(op.betas.size());
  if (op.kind == "lower") {
    replay_lower(op.n, op.t, tracer);
  } else if (op.kind == "batch") {
    Tracer::Scope batch(tracer, "core.batch", op.n, "batch", points);
    (void)engine::Registry::instance().require("batch").evaluate(request);
  } else if (op.kind == "mc") {
    request.trials = op.trials;
    Tracer::Scope mc(tracer, "sim.mc", op.n, "mc", static_cast<double>(op.trials) * points);
    (void)engine::Registry::instance().require("mc").evaluate(request);
  } else if (op.kind == "grid") {
    const auto plan = engine::PlanCache::instance().get_or_lower(op.n, op.t);
    std::vector<double> out(op.betas.size());
    // One grid is microseconds; repeat it so the span is long enough to time.
    Tracer::Scope grid(tracer, "poly.eval_grid", op.n);
    const auto started = Clock::now();
    std::size_t rounds = 0;
    while (rounds < 64 || Clock::now() - started < std::chrono::milliseconds(20)) {
      plan->eval_grid(op.betas, out);
      ++rounds;
    }
    grid.set_work(static_cast<double>(rounds) * points);
  } else {
    throw std::runtime_error("unknown op kind '" + op.kind + "'");
  }
}

double run_pass(const std::vector<Op>& ops, Tracer& tracer, Counts& counts) {
  ddm::engine::PlanCache::instance().clear();
  ddm::net::EvalService service(ddm::net::ServiceConfig{});
  std::map<std::string, bool> seen_instances;
  const auto started = Clock::now();
  for (const Op& op : ops) {
    Tracer::Scope root(tracer, "op." + op.kind);
    if (op.kind == "sweep") {
      replay_sweep(op, tracer, counts);
    } else if (op.kind == "request" || op.kind == "netprobe") {
      replay_request(op, tracer, counts, service, seen_instances);
    } else {
      replay_probe(op, tracer);
    }
  }
  return std::chrono::duration<double>(Clock::now() - started).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

void write_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.dur_ns) / 1e3 << ",\"args\":{\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << ",\"engine\":\"" << span.engine
        << "\",\"work\":" << span.work << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
}

/// Durations (and work) of the traced pass, grouped by a key.
struct Group {
  std::vector<double> us;
  double ns = 0;
  double work = 0;

  void add(const Span& span) {
    us.push_back(static_cast<double>(span.dur_ns) / 1e3);
    ns += static_cast<double>(span.dur_ns);
    work += span.work;
  }
  [[nodiscard]] double mean_ms() const {
    return us.empty() ? 0.0 : ns / 1e6 / static_cast<double>(us.size());
  }
  [[nodiscard]] double ns_per_work() const { return work == 0 ? 0.0 : ns / work; }
};

std::vector<double> values_of(const std::map<std::uint64_t, double>& by_op) {
  std::vector<double> values;
  for (const auto& [op, value] : by_op) values.push_back(value);
  return values;
}

void print_object(const char* key, const std::map<std::string, double>& values, bool last) {
  std::cout << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  std::cout << "}" << (last ? "" : ",");
}

/// Aggregates the traced pass into the per-layer metrics run.py reports,
/// plus a per-instance breakdown ("<span>[.<engine>].n<players>": ns per
/// point where the span counts points, else ms per call).
void print_metrics(const std::vector<Span>& spans, const Counts& counts, double untraced_s,
                   double traced_s, double cache_hit_ratio) {
  std::map<std::string, Group> groups;  // by "name" and by "name.engine"
  std::map<std::string, Group> instances;
  // Per request op: handle_line minus its in-process parts (what the service
  // adds: queue, hand-off to a worker, wake-up), and evaluate_resilient minus
  // evaluate.
  std::map<std::uint64_t, double> handoff;
  std::map<std::uint64_t, double> resilient;
  for (const Span& span : spans) {
    groups[span.name].add(span);
    std::string key = span.name;
    if (!span.engine.empty()) {
      key += "." + span.engine;
      groups[key].add(span);
    }
    if (span.n != 0) instances[key + "." + instance_key(span.n)].add(span);
    const double micros = static_cast<double>(span.dur_ns) / 1e3;
    if (span.name == "net.handle_line") handoff[span.op] += micros;
    if (span.name == "net.parse" || span.name == "engine.select" ||
        span.name == "engine.evaluate" || span.name == "net.encode" ||
        span.name == "core.analyze") {
      handoff[span.op] -= micros;
    }
    if (span.name == "engine.evaluate_resilient") resilient[span.op] += micros;
  }
  for (auto& [op, micros] : resilient) {
    for (const Span& span : spans) {
      if (span.op == op && span.name == "engine.evaluate") {
        micros -= static_cast<double>(span.dur_ns) / 1e3;
      }
    }
  }
  const auto group = [&groups](const std::string& key) -> const Group& {
    static const Group empty;
    const auto it = groups.find(key);
    return it == groups.end() ? empty : it->second;
  };
  const auto chosen = [&counts](const char* id) {
    const auto it = counts.chosen.find(id);
    return it == counts.chosen.end() ? 0.0 : static_cast<double>(it->second);
  };
  double select_total = 0;
  for (const auto& [key, ms] : counts.select_ms) select_total += ms;
  const Group& mc_requests = group("engine.evaluate.mc");
  const Group& mc_probes = group("sim.mc.mc");
  const double mc_ns = mc_requests.ns + mc_probes.ns;
  const double mc_trials = mc_requests.work + mc_probes.work;

  const std::map<std::string, double> metrics{
      {"net.parse_us", median(group("net.parse").us)},
      {"net.encode_us", median(group("net.encode").us)},
      {"net.handle_line_us", median(group("net.handle_line").us)},
      {"net.queue_handoff_us", median(values_of(handoff))},
      {"engine.select_ms", counts.instances == 0 ? 0.0 : select_total / counts.instances},
      {"engine.select_declined", static_cast<double>(counts.declined)},
      {"engine.lowering_waste_ratio",
       counts.lowered == 0 ? 0.0 : static_cast<double>(counts.lowered_declined) / counts.lowered},
      {"engine.chosen.compiled", chosen("compiled")},
      {"engine.chosen.batch", chosen("batch")},
      {"engine.chosen.mc", chosen("mc")},
      {"engine.chosen.certified", chosen("certified")},
      {"engine.evaluate_ns_per_point.compiled", group("engine.evaluate.compiled").ns_per_work()},
      {"engine.evaluate_ns_per_point.batch", group("engine.evaluate.batch").ns_per_work()},
      {"engine.resilient_overhead_us", median(values_of(resilient))},
      {"engine.cache.hit_ratio", cache_hit_ratio},
      {"poly.lower_ms", group("poly.lower").mean_ms()},
      {"poly.eval_grid_ns_per_point", group("poly.eval_grid").ns_per_work()},
      {"core.piecewise_build_ms", group("core.piecewise_build").mean_ms()},
      {"core.batch_ns_per_point", group("core.batch.batch").ns_per_work()},
      {"core.certified_ms_per_point", group("engine.evaluate.certified").mean_ms()},
      {"core.certified_escalations", static_cast<double>(counts.escalations)},
      {"core.analyze_ms", group("core.analyze").mean_ms()},
      {"sim.mc_trials_per_s", mc_ns == 0 ? 0.0 : mc_trials / (mc_ns / 1e9)},
      {"trace.overhead_ratio", untraced_s == 0 ? 0.0 : traced_s / untraced_s},
  };
  std::map<std::string, double> breakdown;
  for (const auto& [key, g] : instances) {
    breakdown[key] = g.work > 0 ? g.ns_per_work() : g.mean_ms();
  }

  std::cout.precision(17);
  std::cout << "{";
  print_object("metrics", metrics, false);
  print_object("select_ms", counts.select_ms, false);
  print_object("by_instance", breakdown, false);
  // handle_line per request op, in op order (run.py pairs them with socket
  // round trips of the same lines).
  std::cout << "\"handle_line_us\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (span.name == "net.handle_line") {
      std::cout << (first ? "" : ",") << static_cast<double>(span.dur_ns) / 1e3;
      first = false;
    }
  }
  std::cout << "],";
  std::cout << "\"spans\":" << spans.size() << ",\"untraced_s\":" << untraced_s
            << ",\"traced_s\":" << traced_s << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--provenance") {
      std::cout << "{\"build_type\":\"" << ddm::util::build_type()
                << "\",\"simd_width\":" << ddm::util::simd::dispatch_width()
                << ",\"threads\":" << ddm::util::parallelism() << "}\n";
      return 0;
    }
    if (argc != 3) {
      std::cerr << "usage: perfbench_replay --provenance | <ops-file> <trace-out.json>\n";
      return 2;
    }
    const std::vector<Op> ops = read_ops(argv[1]);
    const Clock::time_point origin = Clock::now();
    Counts ignored;
    Tracer off(false, origin);
    (void)run_pass(ops, off, ignored);
    const double untraced_s = run_pass(ops, off, ignored);
    Counts counts;
    Tracer on(true, origin);
    const auto cache_before = ddm::engine::PlanCache::instance().stats();
    const double traced_s = run_pass(ops, on, counts);
    const auto cache_after = ddm::engine::PlanCache::instance().stats();
    write_trace(on.spans(), argv[2]);
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
    print_metrics(on.spans(), counts, untraced_s, traced_s,
                  hits + misses == 0 ? 0.0 : hits / (hits + misses));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_replay: " << error.what() << "\n";
    return 1;
  }
}
