// Tests for the shared parallel-execution engine (util/parallel.hpp):
// coverage of the index range, deterministic chunked reduction, exception
// propagation, nesting, and the worker-count cap.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "util/status.hpp"

namespace ddm::util {
namespace {

TEST(Parallelism, AtLeastOneLane) { EXPECT_GE(parallelism(), 1u); }

/// Threads of this process, from /proc/self/task (0 where it is missing).
std::size_t thread_count() {
  std::error_code error;
  std::size_t count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
       !error && it != end; it.increment(error)) {
    ++count;
  }
  return count;
}

TEST(Parallelism, CountsLanesWithoutStartingThreads) {
  // Reporting the lane count, or running a region of one chunk, starts no
  // thread: the pool starts with the first region that hands a chunk to a
  // helper.
  const std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task";
  EXPECT_GE(parallelism(), 1u);
  EXPECT_EQ(thread_count(), before);
  parallel_for(0, 10, [](std::size_t, std::size_t) {}, 10);
  EXPECT_EQ(thread_count(), before);
}

TEST(ParseThreadCount, AcceptsDecimalIntegersInRange) {
  EXPECT_EQ(parse_thread_count("DDM_THREADS", "1"), 1u);
  EXPECT_EQ(parse_thread_count("DDM_THREADS", "8"), 8u);
  EXPECT_EQ(parse_thread_count("DDM_THREADS", "4096"), 4096u);
}

TEST(ParseThreadCount, RejectsGarbageNamingTheVariable) {
  // Pre-fix, std::atoi silently mapped "abc" to 0 (then clamped to 1) and
  // "1e9" to 1 — a sweep the user meant to run wide ran serial instead.
  for (const char* bad : {"abc", "1e9", "", "0", "4097", "-2", "3.5", " 4", "4 ", "0x10"}) {
    try {
      (void)parse_thread_count("DDM_THREADS", bad);
      FAIL() << "expected ddm::Error for '" << bad << "'";
    } catch (const Error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("DDM_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find("invalid thread count"), std::string::npos) << what;
    }
  }
}

TEST(ParseThreadCount, RejectsOverflowBeyondUnsigned) {
  EXPECT_THROW((void)parse_thread_count("DDM_THREADS", "99999999999999999999"), Error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10007;  // prime: exercises a ragged final chunk
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, RespectsGrainBoundaries) {
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kGrain = 64;
  std::atomic<bool> bad{false};
  parallel_for(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        if (lo % kGrain != 0 || (hi != kN && hi - lo != kGrain)) bad = true;
      },
      kGrain);
  EXPECT_FALSE(bad.load());
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t lo, std::size_t) {
                              if (lo == 0) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsComplete) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel_for(0, 16, [&](std::size_t ilo, std::size_t ihi) {
        total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelFor, PropagatesExceptionFromNestedRegion) {
  // The inner region is started by pool workers, not the main thread; its
  // chunk exception must travel up through the outer region's helper-lending
  // machinery without being swallowed or deadlocking the pool.
  EXPECT_THROW(parallel_for(0, 8,
                            [](std::size_t lo, std::size_t) {
                              parallel_for(0, 16, [lo](std::size_t ilo, std::size_t) {
                                if (lo == 0 && ilo == 0) {
                                  throw std::runtime_error("nested boom");
                                }
                              });
                            }),
               std::runtime_error);
  // The pool must stay usable after the unwound nested failure.
  std::atomic<int> total{0};
  parallel_for(0, 32, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelReduce, MatchesSerialSum) {
  constexpr std::size_t kN = 4321;
  const std::uint64_t expected = kN * (kN - 1) / 2;
  const auto chunk_sum = [](std::size_t lo, std::size_t hi) {
    std::uint64_t s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += i;
    return s;
  };
  const auto add = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  EXPECT_EQ(parallel_reduce<std::uint64_t>(0, kN, 128, chunk_sum, add, 0), expected);
}

TEST(ParallelReduce, DeterministicAcrossWorkerCaps) {
  // Floating-point reduction: the chunk decomposition (and hence the fold
  // order) depends only on the grain, so capping the workers at 1, 2, or all
  // lanes must give bitwise-identical sums.
  constexpr std::size_t kN = 5000;
  const auto chunk_sum = [](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) s += 1.0 / (1.0 + static_cast<double>(i));
    return s;
  };
  const auto add = [](double a, double b) { return a + b; };
  const double serial = parallel_reduce<double>(0, kN, 64, chunk_sum, add, 0.0, 1);
  const double two = parallel_reduce<double>(0, kN, 64, chunk_sum, add, 0.0, 2);
  const double all = parallel_reduce<double>(0, kN, 64, chunk_sum, add, 0.0);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, all);
}

TEST(ParallelReduce, PropagatesChunkException) {
  const auto chunk = [](std::size_t lo, std::size_t) -> int {
    if (lo >= 128) throw std::domain_error("reduce boom");
    return 1;
  };
  const auto add = [](int a, int b) { return a + b; };
  EXPECT_THROW((void)parallel_reduce<int>(0, 1024, 64, chunk, add, 0), std::domain_error);
}

}  // namespace
}  // namespace ddm::util
