#!/usr/bin/env bash
# test_cli_golden.sh — byte-identity pins for the forced-engine CLI surface,
# registered as the ctest `cli_engine_golden` test (tools/CMakeLists.txt).
#
# Each file under tests/golden_cli/ is the output of one ddm_cli invocation
# with a pinned evaluation path (--engine=batch, --engine=compiled, or
# --certify) or a default scalar subcommand. Every capture must match byte
# for byte; a capture changes only when an output format is re-pinned on
# purpose, and then every digit it shared with the old capture stays.
#
# Usage: test_cli_golden.sh /path/to/ddm_cli /path/to/tests/golden_cli
set -euo pipefail

CLI="$1"
GOLDEN_DIR="$2"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# golden file -> exact capture command (argv after the binary).
check() {
  local name="$1"
  shift
  local golden="$GOLDEN_DIR/$name"
  [ -f "$golden" ] || fail "missing golden file $golden"
  local actual
  actual="$("$CLI" "$@")" || fail "'$CLI $*' failed"
  if [ "$actual" != "$(cat "$golden")" ]; then
    diff <(printf '%s\n' "$actual") "$golden" >&2 || true
    fail "'$CLI $*' output differs from $name"
  fi
}

run_checks() {
  check sweep_n3_batch.txt       sweep 3 1 0 1 12 --engine=batch
  check sweep_n3_compiled.txt    sweep 3 1 0 1 12 --engine=compiled
  check sweep_n6_compiled.txt    sweep 6 2 0 1 24 --engine=compiled
  check sweep_n12_batch.txt      sweep 12 4 0 1 8 --engine=batch
  check sweep_n12_compiled.txt   sweep 12 4 0 1 8 --engine=compiled
  check sweep_n4_certify.txt     sweep 4 4/3 0 1 16 --certify
  check sweep_n4_certify.txt     sweep 4 4/3 0 1 16 --engine=certified
  check threshold_n3.txt         threshold 3 1 0.622
  check threshold_n24_certify.txt threshold 24 8 3/8 --certify
  check volume_m2.txt            volume 2 1 1 3/4 3/4
  check analyze_n3.txt           analyze 3 1
  check analyze_n4.txt           analyze 4 4/3
  check oblivious_n3.txt         oblivious 3 1
  # Generalized scenarios (engine/scenario.hpp): heterogeneous ranges and
  # adversarial deviation pin the exact generalized evaluators — and the
  # captures above pin that threading the scenario seam through the CLI left
  # every default-scenario byte untouched.
  check threshold_n3_het.txt     threshold 3 1 0.5 --scenario=heterogeneous --ranges=1/2,1,2
  check sweep_n3_het.txt         sweep 3 1 0 1 8 --scenario=heterogeneous:1/2,1,2
  check sweep_n3_dev.txt         sweep 3 1 0 1 8 --scenario=deviating:1
  check threshold_n6_dev_cert.txt threshold 6 2 0.62 --scenario=deviating:2 --certify
  check deviate_n6.txt           deviate 6 2 0.62 2 20000
}

# Every capture must hold under the default (native) SIMD dispatch AND with
# DDM_SIMD=off forcing the pre-SIMD scalar kernels: the vector lanes
# replicate the scalar op sequence bit for bit (util/simd.hpp), so the
# captures are width-independent by construction.
run_checks
CLI_DEFAULT="$CLI"
check() {
  local name="$1"
  shift
  local golden="$GOLDEN_DIR/$name"
  local actual
  actual="$(env DDM_SIMD=off "$CLI_DEFAULT" "$@")" || fail "'DDM_SIMD=off $CLI_DEFAULT $*' failed"
  if [ "$actual" != "$(cat "$golden")" ]; then
    diff <(printf '%s\n' "$actual") "$golden" >&2 || true
    fail "'DDM_SIMD=off $CLI_DEFAULT $*' output differs from $name"
  fi
}
run_checks

echo "cli golden checks passed"
