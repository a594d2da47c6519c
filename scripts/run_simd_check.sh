#!/usr/bin/env bash
# run_simd_check.sh — end-to-end DDM_SIMD dispatch check, registered as the
# opt-in ctest `simd_dispatch_check` (configure with -DDDM_SIMD_CHECK=ON;
# `ctest -L simd` then runs it together with the lane-width parity matrix).
#
# The vectorization contract at the CLI surface (docs/performance.md §4):
#   * every accepted DDM_SIMD value (off, scalar, native, avx2, neon, unset)
#     produces BYTE-IDENTICAL output on `compiled`, the one vectorized
#     engine — the packs replicate the scalar op sequence per lane, so width
#     is unobservable in the numbers;
#   * a malformed value is rejected with exit 2 naming the variable;
#   * --metrics reports the width actually dispatched: 1 under off/scalar,
#     and identical to the unset/native width otherwise-or-smaller (clamped
#     to what the binary and CPU support, never widened).
#
# Usage: run_simd_check.sh /path/to/ddm_cli
set -euo pipefail

CLI="$1"
ENGINE=compiled
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

dispatched_width() {
  # engine.simd_width gauge from the --metrics exposition (stderr).
  env "$@" "$CLI" sweep 12 4 0 1 64 --engine="$ENGINE" --metrics 2>&1 >/dev/null \
    | awk '$1 == "engine.simd_width" { print $2 }'
}

ref="$("$CLI" sweep 12 4 0 1 64 --engine="$ENGINE")"

# Byte identity across every accepted mode.
for mode in off scalar native avx2 neon; do
  out="$(env DDM_SIMD="$mode" "$CLI" sweep 12 4 0 1 64 --engine="$ENGINE")"
  [ "$ref" = "$out" ] || fail "engine=$ENGINE DDM_SIMD=$mode output differs from default"
done

# Malformed values: exit 2, stderr names the variable.
for bad in bogus OFF avx512 2 ""; do
  rc=0
  msg="$(env DDM_SIMD="$bad" "$CLI" sweep 12 4 0 1 64 --engine="$ENGINE" 2>&1)" && rc=0 || rc=$?
  [ "$rc" -eq 2 ] || fail "engine=$ENGINE DDM_SIMD='$bad' exited $rc, expected 2"
  case "$msg" in
    *DDM_SIMD*) ;;
    *) fail "engine=$ENGINE DDM_SIMD='$bad' rejection does not name the variable: $msg" ;;
  esac
done

# Honest gauge: off/scalar dispatch width 1; native equals the unset
# default; avx2/neon never exceed their requested widths.
native="$(dispatched_width)"
[ -n "$native" ] || fail "engine=$ENGINE --metrics did not expose engine.simd_width"
[ "$(dispatched_width DDM_SIMD=off)" = "1" ] || fail "engine=$ENGINE DDM_SIMD=off gauge != 1"
[ "$(dispatched_width DDM_SIMD=scalar)" = "1" ] || fail "engine=$ENGINE DDM_SIMD=scalar gauge != 1"
[ "$(dispatched_width DDM_SIMD=native)" = "$native" ] \
  || fail "engine=$ENGINE DDM_SIMD=native gauge != unset gauge"
[ "$(dispatched_width DDM_SIMD=avx2)" -le 4 ] || fail "engine=$ENGINE DDM_SIMD=avx2 gauge > 4"
[ "$(dispatched_width DDM_SIMD=neon)" -le 2 ] || fail "engine=$ENGINE DDM_SIMD=neon gauge > 2"

echo "simd dispatch checks passed"
