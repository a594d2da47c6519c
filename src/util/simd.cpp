#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/status.hpp"

namespace ddm::util::simd {

namespace {

// Host CPU support for the widths compiled into this binary. Checked once:
// the answer cannot change while the process runs.
bool cpu_supports_avx2() noexcept {
#if defined(DDM_SIMD_COMPILED_AVX2) && defined(__GNUC__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if defined(DDM_SIMD_COMPILED_AVX512) && defined(__GNUC__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

// Cached resolution of DDM_SIMD (0 = not yet resolved). Only a SUCCESSFUL
// parse is cached: a malformed value throws on every call, mirroring how a
// malformed DDM_THREADS resurfaces instead of latching (util/parallel.cpp).
std::atomic<int> g_resolved{0};

// Test/benchmark override (ScopedForceWidth); 0 = no override. Global, not
// thread-local: compiled eval_grid runs on pool threads that must observe the
// benchmark thread's override.
std::atomic<int> g_forced{0};

int clamp_to_native(int width) noexcept {
  const int native = native_width();
  return width < native ? width : native;
}

int resolve_from_env() {
  const char* env = std::getenv("DDM_SIMD");
  if (env == nullptr) return native_width();
  switch (parse_simd_mode("DDM_SIMD", env)) {
    case SimdMode::kOff:
    case SimdMode::kScalar:
      return 1;
    case SimdMode::kNative:
      return native_width();
    case SimdMode::kAvx2:
      return clamp_to_native(4);
    case SimdMode::kNeon:
      return clamp_to_native(2);
  }
  return 1;  // unreachable
}

}  // namespace

SimdMode parse_simd_mode(const char* env_name, const char* text) {
  const std::string value = text == nullptr ? std::string() : std::string(text);
  if (value == "off") return SimdMode::kOff;
  if (value == "scalar") return SimdMode::kScalar;
  if (value == "native") return SimdMode::kNative;
  if (value == "avx2") return SimdMode::kAvx2;
  if (value == "neon") return SimdMode::kNeon;
  throw Error(std::string(env_name) + ": invalid SIMD mode '" + value +
              "' (expected off, scalar, native, avx2, or neon)");
}

int native_width() noexcept {
  static const int width = [] {
    if (cpu_supports_avx512()) return 8;
    if (cpu_supports_avx2()) return 4;
#if defined(DDM_SIMD_HAS_SSE2) || defined(DDM_SIMD_HAS_NEON)
    return 2;
#else
    return 1;
#endif
  }();
  return width;
}

int dispatch_width() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != 0) return clamp_to_native(forced);
  int cached = g_resolved.load(std::memory_order_relaxed);
  if (cached == 0) {
    cached = resolve_from_env();  // throws on a malformed DDM_SIMD
    g_resolved.store(cached, std::memory_order_relaxed);
  }
  return cached;
}

ScopedForceWidth::ScopedForceWidth(int width) noexcept
    : previous_(g_forced.exchange(width < 1 ? 1 : width, std::memory_order_relaxed)) {}

ScopedForceWidth::~ScopedForceWidth() {
  g_forced.store(previous_, std::memory_order_relaxed);
}

void reset_dispatch_cache_for_testing() noexcept {
  g_resolved.store(0, std::memory_order_relaxed);
}

}  // namespace ddm::util::simd
