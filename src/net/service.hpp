// service.hpp — the request-serving core of ddm_serve.
//
// EvalService sits between the TCP front (net/server.hpp, one thread per
// connection calling handle_line) and the engine layer. It owns a BOUNDED
// admission queue and a small worker pool:
//
//   * Admission is load-shedding, not blocking: a full queue answers
//     `{"ok":false,"error":"overloaded"}` immediately (serve.shed counter)
//     instead of letting latency grow without bound. Connection threads
//     block only on their own job's completion.
//   * Workers COALESCE: when the queue holds several `threshold` requests
//     for the same (n, t), engine, tolerance, trials, seed, and scenario, one
//     worker folds up to ServiceConfig::coalesce_limit of them into a single
//     batched EvalRequest carrying those fields — one plan lookup or one
//     parallel ladder pass serves the group (serve.coalesced_batches /
//     serve.batch_points), and each job's reply (value and `bound`) equals
//     what it would get served alone, randomized answers included: every
//     point draws the stream of its own solo request. The batch runs under
//     the group's tightest deadline; if that cuts it off, each job is
//     re-evaluated individually under its own control, so one impatient
//     client cannot fail its queue-mates.
//   * Every job evaluates through engine::evaluate_resilient, so per-request
//     deadlines, retry-with-backoff, and the degradation chain all apply;
//     degraded answers carry `"degraded":true` plus the chain note.
//   * Requests may carry an optional `scenario` field (the canonical
//     descriptor of engine/scenario.hpp, e.g. "heterogeneous:1/2,1,2" or
//     "deviating:2") posing the evaluation over a generalized game. The
//     field is validated strictly at admission — malformed descriptors and
//     player-count mismatches are `bad_request`, never a silently
//     homogeneous answer — the digest joins the coalescing key, and replies
//     echo it back.
//   * Drain (the SIGTERM path) stops admission — late arrivals get a
//     structured `draining` reply — serves everything already queued, then
//     lets the workers exit.
//
// The wire protocol and operational guidance live in docs/robustness.md
// ("Operating ddm_serve").
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/resilient.hpp"
#include "util/resilience.hpp"

namespace ddm::net {

/// Serving knobs; the ddm_serve main populates these from DDM_SERVE_* /
/// command-line flags (strictly parsed — see util/env.hpp).
struct ServiceConfig {
  /// Admission-queue bound; arrivals beyond it are shed.
  std::size_t queue_capacity = 64;
  /// Worker threads popping the queue.
  unsigned workers = 2;
  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; zero = no default deadline.
  std::chrono::milliseconds default_deadline{0};
  /// Max `threshold` jobs folded into one coalesced batch.
  std::size_t coalesce_limit = 16;
  /// Engine-selection policy for every request (requests may force an
  /// engine with an `engine` field).
  engine::EnginePolicy policy;
  /// Request-level retry/backoff handed to evaluate_resilient.
  util::RetryPolicy retry{.max_retries = 1,
                          .base_delay = std::chrono::milliseconds(1),
                          .jitter = 0.1};
};

class EvalService {
 public:
  explicit EvalService(ServiceConfig config);
  ~EvalService();
  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Serves one request line and returns the reply object (no trailing
  /// newline). Never throws: malformed input, shedding, deadline cuts, and
  /// evaluation failures all come back as structured error replies. Blocks
  /// the calling (connection) thread until the job completes; `health` is
  /// answered inline without touching the queue.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Stops admission (new work is answered with `draining`), serves the
  /// queued jobs, and joins the workers. Idempotent.
  void drain();

  [[nodiscard]] bool draining() const noexcept;

  /// Current queue depth (also exported as the serve.queue_depth gauge).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Job;

  [[nodiscard]] std::string serve_health();
  void worker_loop();
  void serve_group(std::vector<std::shared_ptr<Job>>& group);
  [[nodiscard]] std::string serve_job(const Job& job) const;

  ServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool draining_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ddm::net
