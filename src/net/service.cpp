#include "net/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <utility>

#include "core/symmetric_threshold.hpp"
#include "engine/policy.hpp"
#include "net/ndjson.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::net {

namespace {

struct ServeMetrics {
  obs::Counter requests = obs::counter("serve.requests");
  obs::Counter shed = obs::counter("serve.shed");
  obs::Counter degraded = obs::counter("serve.degraded");
  obs::Counter deadline_exceeded = obs::counter("serve.deadline_exceeded");
  obs::Counter cancelled = obs::counter("serve.cancelled");
  obs::Counter bad_requests = obs::counter("serve.bad_requests");
  obs::Counter coalesced_batches = obs::counter("serve.coalesced_batches");
  obs::Counter batch_points = obs::counter("serve.batch_points");
  obs::Histogram request_seconds = obs::histogram("serve.request_seconds");
  obs::Gauge queue_depth = obs::gauge("serve.queue_depth");

  static const ServeMetrics& get() {
    static const ServeMetrics metrics;
    return metrics;
  }
};

/// Caps on wire-supplied parameters: generous for real use, tight enough
/// that one request cannot buy unbounded memory or compute by itself (the
/// deadline is the real backstop for compute). `auto` answers every
/// admitted n.
constexpr std::uint64_t kMaxN = engine::kCertifiedAutoMaxN;
constexpr std::uint64_t kMaxTrials = 100'000'000;
/// The exact optimizer behind op 'analyze' is admitted only where it takes
/// about a second or less: `analyze 47 47/3` takes 0.9 s and `analyze 64
/// 64/3` 3.7 s on a 4-vCPU x86-64 VM (Release).
constexpr std::uint64_t kMaxAnalyzeN = 48;

[[noreturn]] void reject(const std::string& why) { throw Error(why); }

[[nodiscard]] util::Rational parse_t(const JsonObject& request) {
  const JsonValue* value = find(request, "t");
  if (value == nullptr) reject("field 't' is required");
  util::Rational t;
  if (value->kind == JsonValue::Kind::kString) {
    try {
      t = util::Rational::parse(value->string);
    } catch (const std::exception&) {
      reject("field 't' is not a valid rational ('a/b' or integer): '" + value->string + "'");
    }
  } else if (value->kind == JsonValue::Kind::kNumber) {
    t = util::Rational::from_double(value->number);
  } else {
    reject("field 't' must be a number or an 'a/b' string");
  }
  if (t.signum() <= 0) reject("field 't' must be positive");
  return t;
}

/// Every answer that carries a proven error bound says so on the wire.
void add_bound(JsonWriter& reply, double bound) {
  if (std::isfinite(bound)) reply.field("bound", bound);
}

/// True for engines whose per-point answers do not depend on request seeds,
/// so jobs from different clients can share one batched evaluation.
[[nodiscard]] bool coalescable_engine(const std::string& engine) {
  return engine.empty() || engine == "auto" || engine == "batch" || engine == "compiled";
}

}  // namespace

struct EvalService::Job {
  std::string id;
  std::string op;
  std::string engine;  // forced engine id, or "" for the service policy
  std::uint32_t n = 0;
  util::Rational t;
  std::string t_key;  // canonical t text, part of the coalescing key
  /// The game the request is posed over; the wire field is the canonical
  /// descriptor text (engine/scenario.hpp), strictly validated at parse
  /// time. The digest joins the coalescing key, so jobs for different games
  /// never share a batch.
  engine::Scenario scenario;
  double beta = 0.0;
  util::Rational tolerance{1, 1000000000};
  /// Canonical tolerance text: part of the coalescing key, because the
  /// certified ladder's answer depends on the tolerance it must meet.
  std::string tol_key = tolerance.to_string();
  std::uint64_t trials = 200000;
  std::uint64_t seed = 42;
  util::RunControl control;
  std::promise<std::string> done;
};

EvalService::EvalService(ServiceConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.coalesce_limit == 0) config_.coalesce_limit = 1;
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

EvalService::~EvalService() { drain(); }

bool EvalService::draining() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t EvalService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void EvalService::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::string EvalService::serve_health() {
  JsonWriter reply;
  reply.field("ok", true)
      .field("op", "health")
      .field("status", draining() ? "draining" : "serving")
      .field("queue_depth", static_cast<std::uint64_t>(queue_depth()))
      .field("workers", static_cast<std::uint64_t>(config_.workers));
  return reply.str();
}

std::string EvalService::handle_line(const std::string& line) {
  const ServeMetrics& metrics = ServeMetrics::get();
  metrics.requests.add();
  obs::ScopedTimer timer(metrics.request_seconds);
  DDM_SPAN("serve.request");

  auto job = std::make_shared<Job>();
  try {
    const JsonObject request = parse_flat_object(line);
    job->id = get_string(request, "id", "");
    job->op = require_string(request, "op");
    if (job->op == "health") return serve_health();
    if (job->op != "threshold" && job->op != "certify" && job->op != "analyze") {
      reject("unknown op '" + job->op + "' (expected threshold, certify, analyze, health)");
    }
    const std::uint64_t n = require_u64(request, "n");
    if (n < 1 || n > kMaxN) {
      reject("field 'n' out of range [1, " + std::to_string(kMaxN) + "]");
    }
    if (job->op == "analyze" && n > kMaxAnalyzeN) {
      reject("op 'analyze' admits n <= " + std::to_string(kMaxAnalyzeN) +
             " (the exact optimizer takes about a second there and grows steeply past it)");
    }
    job->n = static_cast<std::uint32_t>(n);
    job->t = parse_t(request);
    job->t_key = job->t.to_string();
    job->engine = get_string(request, "engine", "");
    if (const std::string descriptor = get_string(request, "scenario", "");
        !descriptor.empty()) {
      // Strict: a malformed or player-count-mismatched scenario is a
      // bad_request, never a silently homogeneous evaluation.
      try {
        job->scenario = engine::Scenario::parse(descriptor);
        job->scenario.check_players(job->n, "scenario");
      } catch (const Error& error) {
        reject(std::string("field 'scenario' is invalid: ") + error.what());
      }
      if (job->op == "analyze" && !job->scenario.is_default()) {
        reject("op 'analyze' serves the homogeneous game only (the Section 5.2 "
               "closed form); evaluate generalized scenarios via op 'threshold'");
      }
    }
    if (job->op != "analyze") {
      job->beta = require_number(request, "beta");
      if (!(job->beta >= 0.0 && job->beta <= 1.0)) reject("field 'beta' must be in [0, 1]");
    }
    if (const JsonValue* tol = find(request, "tol"); tol != nullptr) {
      const double tolerance = get_number(request, "tol", 0.0);
      if (!(tolerance > 0.0)) reject("field 'tol' must be a positive number");
      job->tolerance = util::Rational::from_double(tolerance);
      job->tol_key = job->tolerance.to_string();
    }
    job->trials = get_u64(request, "trials", job->trials);
    if (job->trials < 1 || job->trials > kMaxTrials) {
      reject("field 'trials' out of range [1, " + std::to_string(kMaxTrials) + "]");
    }
    job->seed = get_u64(request, "seed", job->seed);
    const std::uint64_t deadline_ms = get_u64(request, "deadline_ms", 0);
    if (deadline_ms > 0) {
      job->control.deadline = util::Deadline::after(std::chrono::milliseconds(deadline_ms));
    } else if (config_.default_deadline.count() > 0) {
      job->control.deadline = util::Deadline::after(config_.default_deadline);
    }
  } catch (const std::exception& parse_error) {
    metrics.bad_requests.add();
    JsonWriter reply;
    if (!job->id.empty()) reply.field("id", job->id);
    reply.field("ok", false).field("error", "bad_request").field("detail", parse_error.what());
    return reply.str();
  }

  std::future<std::string> reply = job->done.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      JsonWriter shed_reply;
      if (!job->id.empty()) shed_reply.field("id", job->id);
      shed_reply.field("ok", false).field("error", "draining");
      return shed_reply.str();
    }
    if (queue_.size() >= config_.queue_capacity) {
      metrics.shed.add();
      JsonWriter shed_reply;
      if (!job->id.empty()) shed_reply.field("id", job->id);
      shed_reply.field("ok", false)
          .field("error", "overloaded")
          .field("queue_depth", static_cast<std::uint64_t>(queue_.size()));
      return shed_reply.str();
    }
    queue_.push_back(job);
    metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
  return reply.get();
}

void EvalService::worker_loop() {
  const ServeMetrics& metrics = ServeMetrics::get();
  while (true) {
    std::vector<std::shared_ptr<Job>> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      group.push_back(queue_.front());
      queue_.pop_front();
      const Job& head = *group.front();
      if (head.op == "threshold" && coalescable_engine(head.engine)) {
        // Fold queued twins of the head — same instance (n, t), same engine
        // choice, same tolerance, same trials and seed — into one batched
        // evaluation. `auto` can pick the seeded mc engine (a generalized
        // game past the exact cap), so the randomized fields must match too.
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < config_.coalesce_limit;) {
          const Job& candidate = **it;
          if (candidate.op == "threshold" && candidate.n == head.n &&
              candidate.t_key == head.t_key && candidate.engine == head.engine &&
              candidate.tol_key == head.tol_key && candidate.trials == head.trials &&
              candidate.seed == head.seed &&
              candidate.scenario.digest() == head.scenario.digest()) {
            group.push_back(*it);
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    serve_group(group);
  }
}

void EvalService::serve_group(std::vector<std::shared_ptr<Job>>& group) {
  const ServeMetrics& metrics = ServeMetrics::get();
  if (group.size() > 1) {
    metrics.coalesced_batches.add();
    metrics.batch_points.add(group.size());
    DDM_SPAN("serve.coalesced", {{"points", static_cast<std::int64_t>(group.size())}});
    const Job& head = *group.front();
    engine::EvalRequest request;
    request.n = head.n;
    request.t = head.t;
    request.scenario = head.scenario;
    request.tolerance = head.tolerance;
    request.trials = head.trials;
    request.seed = head.seed;
    request.betas.reserve(group.size());
    for (const auto& job : group) request.betas.push_back(job->beta);
    // Every job is point 0 of its own solo request, so a randomized engine
    // draws each point from the stream the job would draw alone.
    request.point_ids.assign(group.size(), 0);
    // The batch runs under the group's TIGHTEST remaining budget: if that
    // suffices, everyone wins the amortization; if it fires, each job falls
    // back to its own evaluation below, under its own control.
    bool any_deadline = false;
    auto min_remaining = std::chrono::nanoseconds::max();
    for (const auto& job : group) {
      if (job->control.deadline.is_set()) {
        any_deadline = true;
        min_remaining = std::min(min_remaining, job->control.deadline.remaining());
      }
    }
    engine::ResilientOptions options;
    options.policy = config_.policy;
    if (!head.engine.empty()) options.policy.engine = head.engine;
    options.retry = config_.retry;
    if (any_deadline) options.control.deadline = util::Deadline::after(min_remaining);
    try {
      const engine::EvalOutcome outcome = engine::evaluate_resilient(options, request);
      if (outcome.degraded) metrics.degraded.add();
      for (std::size_t k = 0; k < group.size(); ++k) {
        JsonWriter reply;
        if (!group[k]->id.empty()) reply.field("id", group[k]->id);
        reply.field("ok", true)
            .field("op", "threshold")
            .field("value", outcome.values[k])
            .field("engine", outcome.engine_id);
        add_bound(reply, outcome.bound_at(k));
        reply.field("coalesced", true);
        if (!head.scenario.is_default()) reply.field("scenario", head.scenario.digest());
        if (outcome.degraded) {
          reply.field("degraded", true).field("degradation", outcome.degradation_note);
        }
        group[k]->done.set_value(reply.str());
      }
      return;
    } catch (const std::exception&) {
      // Deadline cut or chain failure on the shared batch: isolate the jobs
      // so one poisoned or impatient request cannot fail its queue-mates.
    }
  }
  for (const auto& job : group) job->done.set_value(serve_job(*job));
}

std::string EvalService::serve_job(const Job& job) const {
  const ServeMetrics& metrics = ServeMetrics::get();
  JsonWriter reply;
  if (!job.id.empty()) reply.field("id", job.id);
  try {
    if (job.op == "analyze") {
      // Both phases poll the request's control once per piece (the build
      // also per recomputed term, the maximizer per certification round),
      // so a deadline cuts the symbolic analysis mid-build instead of after
      // it.
      const auto analysis = core::SymmetricThresholdAnalysis::build(job.n, job.t, job.control);
      const auto opt = analysis.optimize(job.control);
      reply.field("ok", true)
          .field("op", "analyze")
          .field("beta_star", opt.beta.approx())
          .field("value", opt.value.to_double())
          .field("certified", opt.certified);
      return reply.str();
    }

    engine::EvalRequest request;
    request.n = job.n;
    request.t = job.t;
    request.scenario = job.scenario;
    request.betas = {job.beta};
    request.tolerance = job.tolerance;
    request.trials = job.trials;
    request.seed = job.seed;
    engine::ResilientOptions options;
    options.policy = config_.policy;
    if (job.op == "certify") options.policy.engine = "certified";
    if (!job.engine.empty()) options.policy.engine = job.engine;
    options.control = job.control;
    options.retry = config_.retry;
    const engine::EvalOutcome outcome = engine::evaluate_resilient(options, request);
    if (outcome.degraded) metrics.degraded.add();
    reply.field("ok", true)
        .field("op", job.op)
        .field("value", outcome.values.at(0))
        .field("engine", outcome.engine_id);
    add_bound(reply, outcome.bound_at(0));
    if (!job.scenario.is_default()) reply.field("scenario", job.scenario.digest());
    if (outcome.degraded) {
      reply.field("degraded", true).field("degradation", outcome.degradation_note);
    }
    if (job.op == "certify") {
      if (!outcome.certificates.empty()) {
        const CertifiedValue& certificate = outcome.certificates.front();
        reply.field("width", certificate.width().to_double())
            .field("tier", to_string(certificate.tier))
            .field("met_tolerance", certificate.met_tolerance);
      } else {
        // A degraded certify (the certified -> mc chain) has no enclosure;
        // say so instead of inventing one.
        reply.field("met_tolerance", false);
      }
    }
    return reply.str();
  } catch (const Cancelled& stop) {
    metrics.cancelled.add();
    reply.field("ok", false).field("error", "cancelled").field("detail", stop.what());
    return reply.str();
  } catch (const DeadlineExceeded& stop) {
    metrics.deadline_exceeded.add();
    reply.field("ok", false).field("error", "deadline_exceeded").field("detail", stop.what());
    return reply.str();
  } catch (const std::exception& failure) {
    reply.field("ok", false).field("error", "evaluation_failed").field("detail", failure.what());
    return reply.str();
  }
}

}  // namespace ddm::net
