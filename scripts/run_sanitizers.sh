#!/usr/bin/env bash
# run_sanitizers.sh — build and run the concurrency- and memory-sensitive test
# suites under sanitizers, in two instrumented build trees:
#
#   build-asan  -DDDM_SANITIZE=address   (AddressSanitizer + UBSan)
#   build-tsan  -DDDM_SANITIZE=thread    (ThreadSanitizer)
#
# By default only the suites that exercise the parallel engine, the fault
# harness, certified evaluation, checkpointing, Monte Carlo (EstimateWinning
# spreads trial blocks across the pool; ThresholdTrials is the trial loop
# they share), and the SIMD lane-width parity matrix are run (they cover the code most likely to harbour races,
# lifetime bugs, or lane over-reads — the parity matrix's ragged grid tails
# are exactly where a vector path would read past the end of an array),
# plus the cli_robustness and sweep_shard_merge_check scripts, which drive
# the instrumented ddm_cli through argument and checkpoint parsing; pass a
# ctest regex to run a different slice, or '.*' for everything.
#
# Usage: scripts/run_sanitizers.sh [ctest -R regex]
#   scripts/run_sanitizers.sh                 # default robustness slice
#   scripts/run_sanitizers.sh '.*'            # full suite under both sanitizers
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
FILTER="${1:-Parallel|FaultTest|FaultEnv|fault_matrix|fault_env|Certified|IrwinHallSum|KernelEquivalence|Checkpoint|MonteCarlo|EstimateWinning|ThresholdTrials|Simd|simd_parity|cli_robustness|sweep_shard_merge_check}"

run_flavour() {
  local flavour="$1"
  local build_dir="$2"
  echo "=== DDM_SANITIZE=$flavour ($build_dir) ==="
  cmake -B "$build_dir" -S "$REPO_ROOT" -DDDM_SANITIZE="$flavour" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" >/dev/null
  (cd "$build_dir" && ctest -R "$FILTER" --output-on-failure -j "$(nproc)")
}

run_flavour address "$REPO_ROOT/build-asan"
run_flavour thread "$REPO_ROOT/build-tsan"

echo "sanitizer runs passed: address+undefined, thread (filter: $FILTER)"
