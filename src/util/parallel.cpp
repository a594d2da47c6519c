#include "util/parallel.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace ddm::util {

namespace {

unsigned configured_lanes() {
  if (const char* env = std::getenv("DDM_THREADS")) {
    return parse_thread_count("DDM_THREADS", env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Engine metrics (docs/observability.md). Handles are registered once per
// process; every bump is gated on the enable flag inside the handle.
struct EngineMetrics {
  obs::Counter chunks_run = obs::counter("parallel.chunks_run");
  obs::Counter chunks_retried = obs::counter("parallel.chunks_retried");
  obs::Counter faults_injected = obs::counter("parallel.faults_injected");
  obs::Counter regions = obs::counter("parallel.regions");
  obs::Counter regions_stopped = obs::counter("parallel.regions_stopped");
  obs::Histogram chunk_seconds = obs::histogram("parallel.chunk_seconds");
  obs::Histogram queue_seconds = obs::histogram("parallel.queue_seconds");
  obs::Histogram backoff_seconds = obs::histogram("parallel.backoff_seconds");

  static const EngineMetrics& get() {
    static const EngineMetrics metrics;
    return metrics;
  }
};

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Global pool of (lanes - 1) workers; the caller of parallel_for is the
// remaining lane. Constructed on first use, joined at static destruction.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void submit(std::function<void()> task) {
    {
      std::scoped_lock lock(mutex_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() {
    const unsigned lanes = parallelism();
    workers_.reserve(lanes > 0 ? lanes - 1 : 0);
    for (unsigned w = 1; w < lanes; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void worker_loop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left to drain
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Builds the typed cooperative-stop exception for `reason`.
[[nodiscard]] std::exception_ptr make_stop_error(StopReason reason, const char* label,
                                                 std::size_t completed, std::size_t total) {
  if (reason == StopReason::kCancelled) {
    return std::make_exception_ptr(Cancelled(label, completed, total));
  }
  return std::make_exception_ptr(DeadlineExceeded(label, completed, total));
}

// Runs one chunk with the fault-injection hook, the caller's validation
// hook, and bounded retry of transient failures (injected TransientFault or
// validation rejection) under the options' RetryPolicy — between attempts
// the retry backoff sleeps (deadline-clamped) and the RunControl is
// re-polled, so a cancel or deadline cuts a retry loop short instead of
// letting it spin. Returns nullptr on success; on failure returns the
// exception to surface — the original exception for non-transient body
// errors, a typed stop error when control fired mid-retry, or a
// ParallelError naming the chunk once retries are exhausted. Bodies must be
// idempotent over [lo, hi): a retry simply re-runs them.
std::exception_ptr attempt_chunk(std::size_t k, std::size_t lo, std::size_t hi,
                                 const std::function<void(std::size_t, std::size_t)>& body,
                                 const ParallelOptions& options, std::size_t completed,
                                 std::size_t total) {
  const EngineMetrics& metrics = EngineMetrics::get();
  std::string transient_cause;
  for (unsigned attempt = 0; attempt <= options.retry.max_retries; ++attempt) {
    if (attempt > 0) {
      // A retry is new work: re-check the stop conditions and apply the
      // deterministic backoff before burning another attempt.
      if (options.control.engaged()) {
        const StopReason reason = options.control.should_stop();
        if (reason != StopReason::kNone) {
          return make_stop_error(reason, options.label, completed, total);
        }
      }
      const std::chrono::nanoseconds delay = options.retry.delay_before(attempt, k);
      if (delay.count() > 0) {
        metrics.backoff_seconds.record(static_cast<double>(delay.count()) * 1e-9);
        sleep_with_deadline(delay, options.control.deadline);
      }
    }
    try {
      DDM_SPAN("parallel.chunk", {{"label", options.label},
                                  {"chunk", static_cast<std::int64_t>(k)},
                                  {"attempt", static_cast<std::int64_t>(attempt)}});
      obs::ScopedTimer timer(metrics.chunk_seconds);
      metrics.chunks_run.add();
      if (attempt > 0) metrics.chunks_retried.add();
      fault::before_chunk(k);
      body(lo, hi);
      if (options.validate && !options.validate(lo, hi)) {
        transient_cause = "chunk results failed validation";
        continue;
      }
      return nullptr;
    } catch (const fault::TransientFault& fault_error) {
      metrics.faults_injected.add();
      transient_cause = fault_error.what();
      continue;
    } catch (...) {
      return std::current_exception();
    }
  }
  return std::make_exception_ptr(ParallelError(options.label, k, lo, hi,
                                               options.retry.max_retries + 1, transient_cause));
}

// Shared bookkeeping for one parallel_for call. Helpers hold the state via
// shared_ptr so a late-waking helper that finds no chunks left can exit
// safely even after the caller has returned.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::size_t chunks = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  // Held by value: a late-waking helper may touch the options after the
  // caller has returned (the body pointer is only dereferenced while the
  // caller still waits, i.e. while undone chunks remain).
  ParallelOptions options;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  // Region start, captured only while metrics are enabled (0 otherwise);
  // run_chunks derives per-chunk queue latency from it.
  std::uint64_t region_start_ns = 0;

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::exception_ptr first_error;
  /// First stop reason observed (StopReason as int; 0 = none). Once set,
  /// every not-yet-claimed chunk is skipped — claimed fast, counted done —
  /// so the caller's wait completes promptly while in-flight chunks finish.
  std::atomic<int> stop_reason{0};
  /// Chunks that ran to a successful completion (the partial-progress count
  /// reported by the typed stop errors).
  std::atomic<std::size_t> executed{0};

  void run_chunks() {
    const std::size_t grain = options.grain;
    const bool watched = options.control.engaged();
    while (true) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= chunks) return;
      bool skip = stop_reason.load(std::memory_order_relaxed) != 0;
      if (!skip && watched) {
        const StopReason reason = options.control.should_stop();
        if (reason != StopReason::kNone) {
          int expected = 0;
          stop_reason.compare_exchange_strong(expected, static_cast<int>(reason),
                                              std::memory_order_relaxed);
          skip = true;
        }
      }
      if (!skip) {
        if (region_start_ns != 0 && obs::metrics_enabled()) {
          EngineMetrics::get().queue_seconds.record(
              static_cast<double>(steady_ns() - region_start_ns) * 1e-9);
        }
        const std::size_t lo = begin + k * grain;
        const std::size_t hi = std::min(end, lo + grain);
        if (std::exception_ptr error =
                attempt_chunk(k, lo, hi, *body, options,
                              executed.load(std::memory_order_relaxed), chunks)) {
          std::scoped_lock lock(mutex);
          if (!first_error) first_error = std::move(error);
        } else {
          executed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::scoped_lock lock(mutex);
      if (++done == chunks) done_cv.notify_all();
    }
  }
};

}  // namespace

unsigned parallelism() {
  // The lane count alone: the pool starts with the first region that hands
  // a chunk to a helper. A throwing initializer leaves the static unset, so
  // a malformed DDM_THREADS throws again on the next call.
  static const unsigned lanes = configured_lanes();
  return lanes;
}

unsigned parse_thread_count(const char* env_name, const char* text) {
  const std::string value = text == nullptr ? std::string() : std::string(text);
  unsigned parsed = 0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed, 10);
  if (value.empty() || ec != std::errc{} || ptr != last || parsed < 1 || parsed > 4096) {
    throw Error(std::string(env_name) + ": invalid thread count '" + value +
                "' (expected a decimal integer in [1, 4096])");
  }
  return parsed;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& chunk_body,
                  std::size_t grain, unsigned max_workers) {
  ParallelOptions options;
  options.grain = grain;
  options.max_workers = max_workers;
  parallel_for(begin, end, chunk_body, options);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& chunk_body,
                  const ParallelOptions& options_in) {
  if (end <= begin) return;
  ParallelOptions options = options_in;
  if (options.grain == 0) options.grain = 1;
  const std::size_t grain = options.grain;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  DDM_SPAN("parallel.region", {{"label", options.label},
                               {"chunks", static_cast<std::int64_t>(chunks)}});
  EngineMetrics::get().regions.add();
  unsigned lanes = parallelism();
  if (options.max_workers != 0 && options.max_workers < lanes) lanes = options.max_workers;
  if (chunks == 1 || lanes <= 1) {
    // Serial path: same per-chunk fault/validate/retry semantics, immediate
    // rethrow (mirrors the pooled first-error contract for a single lane).
    const bool watched = options.control.engaged();
    for (std::size_t k = 0; k < chunks; ++k) {
      if (watched) {
        const StopReason reason = options.control.should_stop();
        if (reason != StopReason::kNone) {
          EngineMetrics::get().regions_stopped.add();
          std::rethrow_exception(make_stop_error(reason, options.label, k, chunks));
        }
      }
      const std::size_t lo = begin + k * grain;
      const std::size_t hi = std::min(end, lo + grain);
      if (std::exception_ptr error = attempt_chunk(k, lo, hi, chunk_body, options, k, chunks)) {
        std::rethrow_exception(error);
      }
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->chunks = chunks;
  state->begin = begin;
  state->end = end;
  state->options = options;
  state->body = &chunk_body;
  if (obs::metrics_enabled()) state->region_start_ns = steady_ns();

  const std::size_t helpers = std::min<std::size_t>(lanes - 1, chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    ThreadPool::instance().submit([state] { state->run_chunks(); });
  }
  state->run_chunks();  // the calling thread is a lane too

  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->done == state->chunks; });
  if (state->first_error) std::rethrow_exception(state->first_error);
  const int stopped = state->stop_reason.load(std::memory_order_relaxed);
  if (stopped != 0) {
    EngineMetrics::get().regions_stopped.add();
    std::rethrow_exception(make_stop_error(static_cast<StopReason>(stopped), options.label,
                                           state->executed.load(std::memory_order_relaxed),
                                           chunks));
  }
}

}  // namespace ddm::util
