// plan_cache.hpp — process-wide LRU cache of compiled Horner plans.
//
// Lowering the exact Theorem 5.1 piecewise polynomial to a compiled plan
// (poly/compiled.hpp) costs O(#breakpoints · n²) exact rational algebra —
// trivially amortized over one dense sweep, but repeated sweeps, checkpoint
// blocks, and optimizer runs used to re-derive the identical plan every
// call. The cache keys plans by (n, t) and hands out shared_ptr handles, so
// a plan stays valid for callers that still hold it even after eviction.
//
// Concurrency: lookups and insertions take one mutex; the lowering itself
// runs OUTSIDE the lock (lowering is the expensive part — serializing it
// would make the cache a bottleneck). When two threads race to lower the
// same key, both lower and the first insertion wins; the loser adopts the
// winner's plan (identical by construction — lowering is deterministic) and
// the discarded duplicate is counted (`engine.cache.races`, Stats::races) so
// a fleet that keeps re-lowering concurrently is visible, not silent.
//
// Persistence: before lowering, a miss consults the process-wide plan store
// (poly/plan_store.hpp, configured via DDM_PLAN_STORE or
// PlanStore::set_configured). A validated store hit skips the lowering
// entirely (`engine.store.hits`); a stale-format file falls through to
// lowering (`engine.store.stale`), and a file that fails validate-on-load is
// counted (`engine.store.rejects`) and likewise re-lowered — a corrupt store
// degrades cold-start latency, never correctness.
//
// Fault injection: the miss path passes through the fault hook
// (util/fault.hpp) as pseudo-chunk kLoweringFaultChunk before lowering, so
// `throw@0` plans exercise the cache's exception safety: a failed lowering
// must leave the cache unpoisoned — no entry, same stats discipline — and
// the next call re-lowers successfully. tests/test_engine.cpp matrix-tests
// exactly that under DDM_THREADS=1/4.
//
// Observability: every lookup emits an `engine.cache` span (args: n, hit)
// and bumps `engine.cache.hits` / `engine.cache.misses` /
// `engine.cache.evictions` (docs/observability.md).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "poly/compiled.hpp"
#include "util/rational.hpp"

namespace ddm::engine {

/// Chunk ordinal the cache's lowering path presents to the fault-injection
/// hook (util::fault::before_chunk). Lowering is serial, so the ordinal is
/// always 0 — directives like "throw@0" target it deterministically.
inline constexpr std::size_t kLoweringFaultChunk = 0;

class PlanCache {
 public:
  /// Default capacity: distinct (n, t) pairs held. Sweeps and optimizer runs
  /// touch a handful of instances; 32 plans of degree <= ~16 are a few
  /// hundred KB.
  static constexpr std::size_t kDefaultCapacity = 32;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Misses whose lowering lost the insert race and was discarded in
    /// favor of the winner's identical plan. Invariant: races == misses −
    /// entries inserted, deterministically, for any interleaving.
    std::uint64_t races = 0;
    /// Misses served from the plan store without lowering.
    std::uint64_t store_hits = 0;
    /// Store files skipped for a stale format version (re-lowered).
    std::uint64_t store_stale = 0;
    /// Store files rejected by validate-on-load (re-lowered).
    std::uint64_t store_rejects = 0;
  };

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// The process-wide instance (shared by the registry's compiled engine and
  /// the auto selection policy).
  [[nodiscard]] static PlanCache& instance();

  /// Returns the cached plan for (n, t), lowering and inserting on miss.
  /// Every plan is lowered from the homogeneous Theorem 5.1 analysis, the
  /// one game a compiled plan serves. Exceptions from the lowering (invalid
  /// instance, injected fault) propagate and leave the cache untouched.
  [[nodiscard]] std::shared_ptr<const poly::CompiledPiecewise> get_or_lower(
      std::uint32_t n, const util::Rational& t);

  /// The plan for (n, t) if it is resident — cached, or loadable from the
  /// configured plan store (a store load is inserted and counted exactly as
  /// in get_or_lower) — else nullptr. Never lowers, so it costs no more than
  /// a lookup; the auto policy admits compiled plans only through it. A
  /// nullptr answer counts no miss.
  [[nodiscard]] std::shared_ptr<const poly::CompiledPiecewise> find_resident(
      std::uint32_t n, const util::Rational& t);

  /// Entries currently held.
  [[nodiscard]] std::size_t size() const;

  /// Drops every entry (outstanding shared_ptr handles stay valid).
  void clear();

  /// Shrinks/grows the capacity, evicting LRU entries as needed. Capacity 0
  /// is treated as 1.
  void set_capacity(std::size_t capacity);

  [[nodiscard]] Stats stats() const;

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const poly::CompiledPiecewise> plan;
  };

  /// Shared lookup path: cache, then store, then (when `lower`) lowering.
  std::shared_ptr<const poly::CompiledPiecewise> acquire(std::uint32_t n,
                                                         const util::Rational& t, bool lower);
  void evict_excess_locked();

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t capacity_;
  Stats stats_;
};

}  // namespace ddm::engine
