#include "engine/plan_cache.hpp"

#include <utility>

#include "core/symmetric_threshold.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "poly/plan_store.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct CacheMetrics {
  obs::Counter hits = obs::counter("engine.cache.hits");
  obs::Counter misses = obs::counter("engine.cache.misses");
  obs::Counter evictions = obs::counter("engine.cache.evictions");
  obs::Counter races = obs::counter("engine.cache.races");
  obs::Counter store_hits = obs::counter("engine.store.hits");
  obs::Counter store_stale = obs::counter("engine.store.stale");
  obs::Counter store_rejects = obs::counter("engine.store.rejects");

  static const CacheMetrics& get() {
    static const CacheMetrics metrics;
    return metrics;
  }
};

// Canonical cache key. Rational maintains the lowest-terms/positive-
// denominator invariant on every construction and parse, so to_string() of
// equal values is identical ("2/6" parses to the same key as "1/3") — the
// key is spelled num/den explicitly so the canonicalization is this
// function's contract, not an accident of a remote invariant, and
// tests/test_engine.cpp pins it with non-canonical inputs.
std::string cache_key(std::uint32_t n, const util::Rational& t) {
  return std::to_string(n) + "|" + t.num().to_string() + "/" + t.den().to_string();
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

PlanCache& PlanCache::instance() {
  static PlanCache* cache = new PlanCache();  // leaked: outlives late callers
  return *cache;
}

std::shared_ptr<const poly::CompiledPiecewise> PlanCache::get_or_lower(std::uint32_t n,
                                                                      const util::Rational& t) {
  return acquire(n, t, true);
}

std::shared_ptr<const poly::CompiledPiecewise> PlanCache::find_resident(
    std::uint32_t n, const util::Rational& t) {
  return acquire(n, t, false);
}

std::shared_ptr<const poly::CompiledPiecewise> PlanCache::acquire(std::uint32_t n,
                                                                 const util::Rational& t,
                                                                 bool lower) {
  const CacheMetrics& metrics = CacheMetrics::get();
  const std::string key = cache_key(n, t);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
      ++stats_.hits;
      metrics.hits.add();
      DDM_SPAN("engine.cache", {{"n", static_cast<std::int64_t>(n)}, {"hit", 1}});
      return found->second->plan;
    }
  }
  DDM_SPAN("engine.cache", {{"n", static_cast<std::int64_t>(n)}, {"hit", 0}});

  // Miss: consult the persistent plan store first. A validated hit skips the
  // lowering path entirely (warm start); version skew and validation
  // failures are counted and fall through to lowering — the store can only
  // ever cost latency, never correctness.
  std::shared_ptr<const poly::CompiledPiecewise> plan;
  const auto store = poly::PlanStore::configured();
  if (store != nullptr) {
    try {
      plan = store->load(n, t);
      if (plan != nullptr) {
        metrics.store_hits.add();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_hits;
      }
    } catch (const PlanStoreError& error) {
      if (error.stale()) {
        metrics.store_stale.add();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_stale;
      } else {
        metrics.store_rejects.add();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_rejects;
      }
      plan = nullptr;
    }
  }

  if (plan == nullptr) {
    // Neither cached nor stored: a resident-only lookup stops here, with
    // nothing counted (no plan was produced).
    if (!lower) return nullptr;
    // Lower outside the lock. The fault hook runs first so injected
    // transient faults strike before any state changes — a throw here leaves
    // the cache exactly as it was. Unconditional: before_chunk is the call
    // that loads DDM_FAULT_PLAN on first use (active() alone does not), and
    // it is a no-op without a plan.
    util::fault::before_chunk(kLoweringFaultChunk);
    const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
    plan = std::make_shared<const poly::CompiledPiecewise>(
        poly::CompiledPiecewise::lower(analysis.winning_probability()));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  metrics.misses.add();
  const auto raced = index_.find(key);
  if (raced != index_.end()) {
    // Another thread inserted while we lowered (or loaded); adopt its
    // identical plan so every caller shares one copy, and count the
    // discarded duplicate. The splice only reorders the LRU list — entry
    // count is unchanged, so no eviction sweep is needed here; run it anyway
    // so a concurrent set_capacity shrink can never leave the list over
    // budget.
    lru_.splice(lru_.begin(), lru_, raced->second);
    ++stats_.races;
    metrics.races.add();
    auto winner = raced->second->plan;
    evict_excess_locked();
    return winner;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  evict_excess_locked();
  return lru_.front().plan;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  evict_excess_locked();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::evict_excess_locked() {
  const CacheMetrics& metrics = CacheMetrics::get();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    metrics.evictions.add();
  }
}

}  // namespace ddm::engine
