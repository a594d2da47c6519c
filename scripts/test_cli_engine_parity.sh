#!/usr/bin/env bash
# test_cli_engine_parity.sh — cross-engine agreement at the CLI level,
# registered as the ctest `cli_engine_parity` test (tools/CMakeLists.txt).
#
# Every registered engine sweeps the same grids — the golden β = k/8 grid at
# n = 6, t = 2 and the n = 12, t = 4 acceptance instance — and the p_win
# columns must agree with the exact engine within each engine's stated
# tolerance: ~1e-9 for the deterministic double paths, the plan certificate
# for compiled, and statistical slack for Monte Carlo. (The batch kernel's
# bitwise contract with the serial reference kernel is pinned at unit level,
# EngineParity.BatchIsBitwiseEqualToTheSerialKernel.)
#
# Usage: test_cli_engine_parity.sh /path/to/ddm_cli
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

command -v python3 >/dev/null 2>&1 || {
  # ctest maps this to SKIP_RETURN_CODE 77.
  echo "SKIP: python3 not available" >&2
  exit 77
}

# p_win column only (certified rows carry extra enclosure columns, auto rows
# an engine field — the value extraction is format-agnostic).
values() {
  sed -n 's/.*"p_win": \([0-9.eE+-]*\).*/\1/p'
}

run_instance() {
  local label="$1" n="$2" t="$3" steps="$4" compiled_tol="$5"
  for eng in exact batch compiled certified mc; do
    "$CLI" sweep "$n" "$t" 0 1 "$steps" --engine="$eng" | values \
      > "$TMP/$label.$eng" || fail "$label: --engine=$eng sweep failed"
  done
  python3 - "$TMP" "$label" "$steps" "$compiled_tol" <<'PY' || fail "$label: cross-engine parity failed"
import sys

tmp, label, steps = sys.argv[1], sys.argv[2], int(sys.argv[3])
compiled_tol = float(sys.argv[4])

def load(engine):
    with open(f"{tmp}/{label}.{engine}") as f:
        vals = [float(line) for line in f if line.strip()]
    assert len(vals) == steps + 1, f"{engine}: {len(vals)} rows, expected {steps + 1}"
    return vals

exact = load("exact")
# Stated tolerances vs exact ground truth; the compiled bound is the plan's
# certificate (instance-dependent — it grows with n, which is exactly why the
# auto policy re-checks it); mc slack is >6 sigma at the CLI default of
# 200000 trials.
tolerances = {"batch": 1e-9, "compiled": compiled_tol, "certified": 2e-9, "mc": 7e-3}
for engine, tol in tolerances.items():
    for k, (got, want) in enumerate(zip(load(engine), exact)):
        assert abs(got - want) <= tol, \
            f"{label}: engine {engine} point {k}: {got} vs exact {want} (tol {tol})"
print(f"{label}: 5 engines agree on {steps + 1} points")
PY
}

# Compiled tolerances: the n = 6 plan certifies well under 1e-9 (the auto
# policy takes it); the n = 12, t = 4 plan's certificate is wider (~1e-8),
# checked by the unit-level parity suite against the exact reported bound.
run_instance golden_n6 6 2 8 1e-9
run_instance acceptance_n12 12 4 4 1e-7

echo "cli engine parity checks passed"
