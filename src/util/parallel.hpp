// parallel.hpp — the library's shared parallel-execution engine.
//
// Every evaluation surface that fans independent work across cores (Monte
// Carlo trial blocks, compass-search probes, batch grid evaluation) goes
// through this module instead of spawning ad-hoc std::threads. A single
// lazily-initialized global thread pool amortizes thread creation across
// calls; `parallel_for` hands out fixed-grain index chunks from a shared
// atomic counter, and `parallel_reduce` combines per-chunk partials in chunk
// order. Because the chunk decomposition depends only on (range, grain) —
// never on the number of workers — any reduction over chunk results is
// bitwise identical for every thread count, which is what makes the Monte
// Carlo wins tally and the double-precision batch evaluators reproducible.
// See docs/performance.md for the design rationale.
//
// Nested use is safe: the calling thread always participates in executing
// chunks, so a pool worker that itself calls parallel_for drains the inner
// range even when every other worker is busy.
//
// Fault tolerance (docs/robustness.md): each chunk attempt first passes
// through the fault-injection hook (util/fault.hpp), and a chunk that fails
// with a fault::TransientFault — or whose results fail the caller's
// `validate` hook, e.g. a NaN-poisoned output — is retried under
// ParallelOptions::retry (bounded attempts, deterministic exponential
// backoff) before the call fails with a ddm::ParallelError naming the chunk.
// Any other exception from the body propagates immediately (first error
// wins), preserving the pre-existing rethrow contract.
//
// Cooperative stop (ParallelOptions::control): when a CancelToken or
// Deadline is attached, it is polled once per chunk claim (and between retry
// attempts). A stop skips every not-yet-claimed chunk, lets in-flight chunks
// finish, and surfaces as ddm::Cancelled / ddm::DeadlineExceeded carrying
// how many chunks completed out of how many. Unset control costs one
// `engaged()` check per chunk — no clock reads, no atomics.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/resilience.hpp"

namespace ddm::util {

/// Tuning and robustness knobs for parallel_for / parallel_reduce.
struct ParallelOptions {
  /// Indices per chunk (the deterministic partition unit).
  std::size_t grain = 1;
  /// Cap on concurrent lanes (0 = all of parallelism()).
  unsigned max_workers = 0;
  /// Per-chunk retry policy for transient failures (an injected
  /// fault::TransientFault or a `validate` rejection). The default keeps the
  /// historical behaviour: up to 2 immediate retries (no backoff sleeps), so
  /// a chunk may run up to 3 times before the region fails with
  /// ddm::ParallelError. Serving callers attach real backoff per request.
  RetryPolicy retry;
  /// Cooperative stop: polled at chunk claims and between retry attempts.
  /// Default-constructed = run to completion.
  RunControl control;
  /// Region name used in ParallelError messages.
  const char* label = "parallel_for";
  /// Optional post-chunk acceptance check over the chunk's index range
  /// (e.g. "every output in [lo, hi) is finite"). A false return counts as a
  /// transient failure: the chunk body is re-run (bodies must therefore be
  /// idempotent — every production body recomputes its outputs from scratch).
  std::function<bool(std::size_t, std::size_t)> validate;
};

/// Number of usable execution lanes (pool workers + the calling thread).
/// Defaults to std::thread::hardware_concurrency(); override with the
/// DDM_THREADS environment variable (read once, by the first call that
/// succeeds). Starts no thread: the pool starts with the first region that
/// hands a chunk to a helper. A malformed DDM_THREADS value (non-numeric,
/// zero, out of range) throws ddm::Error naming the variable, and is not
/// latched: the next call reads the variable again.
[[nodiscard]] unsigned parallelism();

/// Strict thread-count parser used for DDM_THREADS: accepts only a plain
/// decimal integer in [1, 4096] with no trailing characters; anything else
/// ("abc", "0", "1e9", "") throws ddm::Error naming `env_name` and the
/// offending text. Exposed for tests and for other env-tunable knobs.
[[nodiscard]] unsigned parse_thread_count(const char* env_name, const char* text);

/// Runs `chunk_body(lo, hi)` over the partition of [begin, end) into
/// consecutive chunks of `grain` indices (the last chunk may be short).
/// Chunks execute concurrently on the global pool; the call blocks until all
/// chunks finish. The first exception thrown by a chunk is rethrown here
/// (remaining chunks still run to completion). `max_workers` caps the number
/// of lanes used (0 = use all of parallelism()). Serial fallback when the
/// range is a single chunk or only one lane is available.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& chunk_body,
                  std::size_t grain = 1, unsigned max_workers = 0);

/// Options-based overload with retry/validation semantics (see
/// ParallelOptions). The two-knob overload above forwards here with default
/// robustness settings.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& chunk_body,
                  const ParallelOptions& options);

/// Deterministic parallel reduction: partitions [begin, end) exactly like
/// parallel_for(grain), computes `chunk_fn(lo, hi)` per chunk concurrently,
/// then folds the partials IN CHUNK ORDER:
///   acc = init; for each chunk k: acc = combine(acc, partial[k]).
/// The fold order is a pure function of (begin, end, grain), so the result —
/// including floating-point rounding — is independent of the thread count.
template <typename T>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                const std::function<T(std::size_t, std::size_t)>& chunk_fn,
                                const std::function<T(T, T)>& combine, T init,
                                ParallelOptions options) {
  if (end <= begin) return init;
  if (options.grain == 0) options.grain = 1;
  const std::size_t grain = options.grain;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  std::vector<T> partial(chunks, init);
  parallel_for(
      begin, end,
      [&](std::size_t lo, std::size_t hi) { partial[(lo - begin) / grain] = chunk_fn(lo, hi); },
      options);
  T acc = std::move(init);
  for (T& p : partial) acc = combine(std::move(acc), std::move(p));
  return acc;
}

template <typename T>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                                const std::function<T(std::size_t, std::size_t)>& chunk_fn,
                                const std::function<T(T, T)>& combine, T init,
                                unsigned max_workers = 0) {
  ParallelOptions options;
  options.grain = grain;
  options.max_workers = max_workers;
  options.label = "parallel_reduce";
  return parallel_reduce<T>(begin, end, chunk_fn, combine, std::move(init), std::move(options));
}

}  // namespace ddm::util
