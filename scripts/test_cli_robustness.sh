#!/usr/bin/env bash
# test_cli_robustness.sh — end-to-end CLI checks registered as the ctest
# `cli_robustness` test (tools/CMakeLists.txt): checked argument parsing
# (malformed arguments are rejected with exit 2 and a message naming the
# offending value), certified mode, and the sweep checkpoint/resume
# round-trip including a simulated crash (torn trailing line) and a
# header-mismatch rejection.
#
# When a second argument (the ddm_serve binary) is given, the DDM_SERVE_*
# configuration knobs are checked too: every malformed value must exit 2
# naming the variable, flags must override the environment, and
# --check-config must validate without binding a port.
#
# Usage: test_cli_robustness.sh /path/to/ddm_cli [/path/to/ddm_serve]
set -euo pipefail

CLI="$1"
SERVE="${2:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Runs the CLI expecting failure; checks the exit code and that stderr names
# the offending argument.
expect_reject() {
  local expected_substr="$1"
  shift
  local rc=0 out
  out="$("$@" 2>&1)" && rc=0 || rc=$?
  [ "$rc" -eq 2 ] || fail "'$*' exited $rc, expected 2 (output: $out)"
  case "$out" in
    *"$expected_substr"*) ;;
    *) fail "'$*' output does not mention '$expected_substr': $out" ;;
  esac
}

# --- checked argument parsing -------------------------------------------
expect_reject "1.2.3" "$CLI" threshold 1.2.3 1 0.5      # malformed n
expect_reject "1.2.3" "$CLI" threshold 3 1.2.3 0.5      # malformed rational t
expect_reject "-3"    "$CLI" threshold -3 1 0.5         # negative count
expect_reject "1.2/3" "$CLI" threshold 3 1 1.2/3        # dot inside a fraction
expect_reject "--bogus" "$CLI" threshold 3 1 0.5 --bogus  # unknown option
expect_reject "--certify" "$CLI" oblivious 3 1 --certify  # option/command mismatch
expect_reject "--resume" "$CLI" threshold 3 1 0.5 --resume "$TMP/x"

# Degenerate sweep shapes used to fall through to the usage text (exit 1,
# argument unnamed); they must be rejected like any other malformed argument.
expect_reject "invalid n '0'" "$CLI" sweep 0 1 0 1 4
expect_reject "invalid steps '0'" "$CLI" sweep 3 1 0 1 0
expect_reject "invalid digits" "$CLI" analyze 3 1 0
expect_reject "invalid m" "$CLI" volume 0
expect_reject "volume argument count" "$CLI" volume 2 1/2
# A grid too large for a uint32_t point count (steps + 1 wrapped to 0 and
# the sweep wrote past an empty grid) or for memory is refused naming the
# cap, on every engine and shard; so is a checkpoint header claiming one.
for extra in "" --certify --shard=0/2; do
  # shellcheck disable=SC2086
  expect_reject "invalid steps '4294967295' (sweep needs steps <= 10000000)" \
    "$CLI" sweep 3 1 0 1 4294967295 $extra
done
expect_reject "steps <= 10000000" "$CLI" sweep 3 1 0 1 1000000000
"$CLI" sweep 3 1 0 1 4 --checkpoint "$TMP/cap.ckpt" >/dev/null || fail "checkpointed sweep failed"
sed -i '1s/"steps": 4,/"steps": 4294967295,/' "$TMP/cap.ckpt"
expect_reject "past the sweep cap" "$CLI" merge "$TMP/cap.ckpt"
expect_reject "past the sweep cap" "$CLI" sweep 3 1 0 1 4 --resume "$TMP/cap.ckpt"

# Engine selection: the value set is closed (registry ids + auto), the flag
# is accepted by the evaluating subcommands only, and it cannot combine with
# --certify (which already means --engine=certified).
expect_reject "invalid --engine 'bogus'" "$CLI" sweep 3 1 0 1 4 --engine=bogus
expect_reject "invalid --engine 'bogus'" "$CLI" analyze 3 1 --engine=bogus
expect_reject "--engine requires a value" "$CLI" sweep 3 1 0 1 4 --engine
expect_reject "--engine is only supported by" "$CLI" oblivious 3 1 --engine=batch
expect_reject "--engine is only supported by" "$CLI" ladder 3 1 --engine=batch
expect_reject "--engine cannot be combined with --certify" "$CLI" sweep 3 1 0 1 4 --certify --engine=compiled
# A forced engine that cannot serve the request is a named error, not a
# silent substitution: the double kernel caps n at 20.
expect_reject "does not support" "$CLI" threshold 24 8 3/8 --engine=batch
# An unregistered id is rejected, and the message lists the registered ids.
expect_reject "invalid --engine 'kernel'" "$CLI" sweep 3 1 0 1 4 --engine=kernel
expect_reject "auto, batch, certified, compiled, exact, or mc" "$CLI" sweep 3 1 0 1 4 --engine=kernel
# auto answers symmetric sweeps from the certified ladder up to n = 1000
# (ddm_serve's admission cap too), every row with its bound; past that it
# refuses by name, naming the cap and the engines that serve the request.
auto100="$("$CLI" sweep 100 100/3 0.3 0.7 32)" || fail "auto sweep at n = 100 failed"
[ "$(printf '%s\n' "$auto100" | grep -c '"engine": "certified", "bound": ')" -eq 33 ] \
  || fail "auto sweep at n = 100 did not answer every row with a bound: $auto100"
expect_reject "n <= 1000" "$CLI" sweep 1001 22 0.3 0.4 1
expect_reject "--engine=exact|certified" "$CLI" sweep 1001 22 0.3 0.4 1
# At t >= n no bin can overflow: every row is the exact 1, at any t.
saturated="$("$CLI" sweep 1000 3000 0.3 0.7 2)" || fail "auto sweep at t = 3000 > n failed"
[ "$(printf '%s\n' "$saturated" | grep -c '"p_win": 1, "engine": "certified", "bound": 0}')" -eq 3 ] \
  || fail "auto sweep at t = 3000 > n is not the exact 1 on every row: $saturated"

# Malformed observability options are named, and a bogus DDM_THREADS must be
# rejected up front instead of being silently clamped to one lane.
expect_reject "--trace" "$CLI" threshold 3 1 0.5 --trace
expect_reject "invalid --metrics format 'bogus'" "$CLI" threshold 3 1 0.5 --metrics=bogus
expect_reject "DDM_THREADS" env DDM_THREADS=abc "$CLI" sweep 3 1 0 1 4
expect_reject "DDM_THREADS" env DDM_THREADS=0 "$CLI" sweep 3 1 0 1 4
expect_reject "DDM_THREADS" env DDM_THREADS=1e9 "$CLI" sweep 3 1 0 1 4

# DDM_SIMD (util/simd.hpp): the value set is closed and case-sensitive —
# anything else is rejected up front with the variable named — and every
# accepted mode is pure dispatch policy: `off` forces the scalar Horner loop
# of `compiled`, the one vectorized engine, and the output stays
# byte-identical to the default (native) dispatch.
expect_reject "DDM_SIMD" env DDM_SIMD=bogus "$CLI" sweep 3 1 0 1 4
expect_reject "DDM_SIMD" env DDM_SIMD=OFF "$CLI" sweep 3 1 0 1 4
expect_reject "DDM_SIMD" env DDM_SIMD= "$CLI" sweep 3 1 0 1 4
expect_reject "DDM_SIMD" env DDM_SIMD=avx512 "$CLI" sweep 12 4 0.3 0.4 2 --engine=compiled
simd_ref="$("$CLI" sweep 12 4 0 1 32 --engine=compiled)"
for mode in off scalar native avx2 neon; do
  simd_out="$(env DDM_SIMD="$mode" "$CLI" sweep 12 4 0 1 32 --engine=compiled)" \
    || fail "DDM_SIMD=$mode sweep failed"
  [ "$simd_ref" = "$simd_out" ] || fail "DDM_SIMD=$mode output differs from default dispatch"
done

# Options outside the closed flag set exit 2.
expect_reject "unknown option '--policy=x'" "$CLI" sweep 3 1 0 1 4 --policy=x

# --- ddm_serve configuration ---------------------------------------------
# Same strict-parse contract as DDM_THREADS/DDM_SIMD: a malformed knob exits
# 2 and the error names the variable (or flag) that held the bad text.
if [ -n "$SERVE" ]; then
  "$SERVE" --check-config >/dev/null || fail "ddm_serve --check-config failed on defaults"
  expect_reject "DDM_SERVE_PORT"        env DDM_SERVE_PORT=abc       "$SERVE" --check-config
  expect_reject "DDM_SERVE_PORT"        env DDM_SERVE_PORT=70000     "$SERVE" --check-config
  expect_reject "DDM_SERVE_BACKLOG"     env DDM_SERVE_BACKLOG=0      "$SERVE" --check-config
  expect_reject "DDM_SERVE_QUEUE"       env DDM_SERVE_QUEUE=12q      "$SERVE" --check-config
  expect_reject "DDM_SERVE_QUEUE"       env DDM_SERVE_QUEUE=         "$SERVE" --check-config
  expect_reject "DDM_SERVE_DEADLINE_MS" env DDM_SERVE_DEADLINE_MS=-5 "$SERVE" --check-config
  expect_reject "DDM_SERVE_WORKERS"     env DDM_SERVE_WORKERS=1e3    "$SERVE" --check-config
  expect_reject "--queue"               "$SERVE" --check-config --queue=bogus
  expect_reject "--workers"             "$SERVE" --check-config --workers=0
  expect_reject "unknown argument"      "$SERVE" --check-config --bogus=1
  # Zero/edge audit: PORT=0 (ephemeral) and DEADLINE_MS=0 (no deadline) are
  # meaningful sentinels and must be ACCEPTED; a zero-capacity queue, empty
  # worker pool, or zero backlog can only wedge the daemon and must be
  # rejected naming the knob — consistently between environment and flag.
  env DDM_SERVE_PORT=0 "$SERVE" --check-config >/dev/null \
    || fail "DDM_SERVE_PORT=0 (ephemeral port) was rejected"
  env DDM_SERVE_DEADLINE_MS=0 "$SERVE" --check-config >/dev/null \
    || fail "DDM_SERVE_DEADLINE_MS=0 (no deadline) was rejected"
  expect_reject "DDM_SERVE_QUEUE"   env DDM_SERVE_QUEUE=0   "$SERVE" --check-config
  expect_reject "DDM_SERVE_WORKERS" env DDM_SERVE_WORKERS=0 "$SERVE" --check-config
  expect_reject "--queue"           "$SERVE" --check-config --queue=0
  expect_reject "--backlog"         "$SERVE" --check-config --backlog=0
  expect_reject "DDM_SERVE_QUEUE"   env DDM_SERVE_QUEUE=65537 "$SERVE" --check-config
  expect_reject "DDM_SERVE_WORKERS" env DDM_SERVE_WORKERS=257 "$SERVE" --check-config
  # Flags override the environment; valid values are echoed back, the
  # resolved port and plan store included.
  cfg="$(env DDM_SERVE_QUEUE=8 "$SERVE" --check-config --queue=32 --workers=3)" \
    || fail "ddm_serve --check-config rejected valid knobs"
  case "$cfg" in
    *"port=0"*"queue=32"*"workers=3"*"plan_store=<none>"*) ;;
    *) fail "--check-config did not reflect flag overrides: $cfg" ;;
  esac
  # A plan store pointing nowhere is a configuration error, not a cold start.
  expect_reject "--plan-store"    "$SERVE" --check-config --plan-store="$TMP/no_such_store"
  expect_reject "DDM_PLAN_STORE"  env DDM_PLAN_STORE="$TMP/no_such_store" "$SERVE" --check-config
  mkdir -p "$TMP/empty_store"
  cfg="$("$SERVE" --check-config --plan-store="$TMP/empty_store")" \
    || fail "ddm_serve --check-config rejected a valid plan store"
  case "$cfg" in
    *"plan_store=$TMP/empty_store"*) ;;
    *) fail "--check-config did not report the plan store: $cfg" ;;
  esac
  # Arguments outside the closed flag set exit 2.
  expect_reject "unknown argument '--policy-table=x'" "$SERVE" --check-config --policy-table=x
fi

# --- certified mode ------------------------------------------------------
# Tier 0's a priori bound at this point is about 3e-14: the default 1e-9 is
# met there, and 1e-15 must escalate to the exact tier.
cert="$("$CLI" threshold 24 8 3/8 --certify)"
case "$cert" in
  *"tier = compensated-double"*" met"*) ;;
  *) fail "certified n=24 run did not settle on tier 0: $cert" ;;
esac
cert="$("$CLI" threshold 24 8 3/8 --certify=1/1000000000000000)"
case "$cert" in
  *"tier = exact"*) ;;
  *) fail "certified n=24 run below tier 0's bound did not escalate to the exact tier: $cert" ;;
esac
case "$cert" in
  *" met"*) ;;
  *) fail "certified n=24 run did not meet tolerance: $cert" ;;
esac

# Monte Carlo trial blocks and their streams depend on the trial count only,
# so `simulate` prints the same bytes on one lane and on four.
sim1="$(env DDM_THREADS=1 "$CLI" simulate 12 4 5/8 200000 7)" || fail "simulate failed"
sim4="$(env DDM_THREADS=4 "$CLI" simulate 12 4 5/8 200000 7)" || fail "simulate failed"
[ "$sim1" = "$sim4" ] || fail "simulate differs between DDM_THREADS=1 and 4"

# An unmeetable tolerance must still produce an enclosure but exit 3.
rc=0
"$CLI" volume 2 1 1 3/4 3/4 --certify=0 >/dev/null 2>&1 || rc=$?
# tolerance 0 is satisfiable by the exact tier, so this one must succeed...
[ "$rc" -eq 0 ] || fail "--certify=0 on an exact-capable instance exited $rc"

# --- checkpoint / resume round-trip --------------------------------------
ck="$TMP/sweep.ckpt"
ref="$("$CLI" sweep 3 1 0 1 12)"
full="$("$CLI" sweep 3 1 0 1 12 --checkpoint "$ck")"
[ "$ref" = "$full" ] || fail "checkpointed sweep output differs from plain sweep"

# Simulate a crash: keep the header + 5 rows, leave a torn partial line.
head -n 6 "$ck" > "$ck.tmp"
printf '{"k": 5, "beta":' >> "$ck.tmp"
mv "$ck.tmp" "$ck"
resumed="$("$CLI" sweep 3 1 0 1 12 --resume "$ck")"
[ "$ref" = "$resumed" ] || fail "resumed sweep output is not byte-identical"

# Resuming an already-complete checkpoint recomputes nothing and still
# reproduces the output.
again="$("$CLI" sweep 3 1 0 1 12 --resume "$ck")"
[ "$ref" = "$again" ] || fail "second resume output is not byte-identical"

# A header mismatch (different n) must be rejected NAMING the field, so the
# operator learns which knob differs — not just that "something" does.
expect_reject "field 'n': checkpoint 3 vs requested 4" "$CLI" sweep 4 1 0 1 12 --resume "$ck"
# Engine identity is part of the header: rows computed by one engine must
# never be glued onto a resume running another.
ceng="$TMP/engine.ckpt"
"$CLI" sweep 3 1 0 1 4 --engine=exact --checkpoint "$ceng" >/dev/null
expect_reject "field 'engine': checkpoint exact vs requested mc" \
  "$CLI" sweep 3 1 0 1 4 --engine=mc --resume "$ceng"
# So is the request tolerance: rows certified to 1/1000 must not be resumed
# by a run that asks for 1e-30 (they would print the old, wider rows).
ctol="$TMP/tolerance.ckpt"
"$CLI" sweep 3 1 0 1 4 --certify=1/1000 --checkpoint "$ctol" >/dev/null
expect_reject "field 'tolerance': checkpoint 1/1000 vs requested 1/1000000000000000000000000000000" \
  "$CLI" sweep 3 1 0 1 4 --certify=1/1000000000000000000000000000000 --resume "$ctol"

# --- sharding flags -------------------------------------------------------
expect_reject "invalid --shard 'x/3'" "$CLI" sweep 3 1 0 1 4 --shard=x/3
expect_reject "invalid --shard '3'"   "$CLI" sweep 3 1 0 1 4 --shard=3
expect_reject "invalid --shard '3/3'" "$CLI" sweep 3 1 0 1 4 --shard=3/3
expect_reject "invalid --shard '0/0'" "$CLI" sweep 3 1 0 1 4 --shard=0/0
expect_reject "--shard requires a value" "$CLI" sweep 3 1 0 1 4 --shard
expect_reject "--shard is only supported by 'sweep'" "$CLI" threshold 3 1 0.5 --shard=0/2
# Resuming a sharded checkpoint without (or with the wrong) --shard is a
# named mismatch, not silently partial output.
cs="$TMP/shard0.ckpt"
"$CLI" sweep 3 1 0 1 12 --shard=0/2 --checkpoint "$cs" >/dev/null
expect_reject "field 'shard': checkpoint 0/2 vs requested 0/1" "$CLI" sweep 3 1 0 1 12 --resume "$cs"
expect_reject "field 'shard': checkpoint 0/2 vs requested 1/2" \
  "$CLI" sweep 3 1 0 1 12 --shard=1/2 --resume "$cs"

# --- plans / merge argument checking -------------------------------------
expect_reject "--store is only supported by 'plans'" "$CLI" sweep 3 1 0 1 4 --store="$TMP"
expect_reject "--store requires a directory" "$CLI" plans list --store
expect_reject "unknown plans verb 'bogus'" "$CLI" plans bogus
expect_reject "plans needs a store directory" "$CLI" plans list
expect_reject "--store" "$CLI" plans list --store="$TMP/no_such_store"
expect_reject "invalid n_max '0'" "$CLI" plans precompile 0 1 --store="$TMP/ps"
expect_reject "cannot read" "$CLI" merge "$TMP/no_such.ckpt"

# --- engine selection ----------------------------------------------------
# Every registered engine serves the same small sweep.
for eng in batch certified compiled exact mc; do
  "$CLI" sweep 3 1 0 1 4 --engine="$eng" >/dev/null || fail "--engine=$eng sweep failed"
done
"$CLI" sweep 6 2 0 1 24 --engine=batch >/dev/null || fail "--engine=batch sweep failed"

# Every auto row's value lies within its bound of the exact value (the
# exact engine's rows; both grids are identical doubles).
within_bound() {
  python3 - "$1" "$2" <<'PY'
import json, sys
from fractions import Fraction
auto_rows, exact_rows = json.loads(open(sys.argv[1]).read()), json.loads(open(sys.argv[2]).read())
assert len(auto_rows) == len(exact_rows)
for row, ref in zip(auto_rows, exact_rows):
    assert row["beta"] == ref["beta"], (row, ref)
    # The exact engine's double is within a couple of ulps of the exact value.
    slack = Fraction(row["bound"]) + Fraction(abs(ref["p_win"])) * Fraction(1, 2**51)
    assert abs(Fraction(row["p_win"]) - Fraction(ref["p_win"])) <= slack, (row, ref)
PY
}

# Auto never lowers a plan: a cold small symmetric sweep is answered by the
# certified O(n²) ladder, every row names it and carries its bound, no note
# is printed (nothing was declined), and each value lies within its bound of
# exact.
"$CLI" sweep 6 2 0 1 24 >"$TMP/auto6.out" 2>"$TMP/auto6.err" || fail "auto sweep n=6 failed"
case "$(cat "$TMP/auto6.out")" in
  *'"engine": "certified", "bound": '*) ;;
  *) fail "auto sweep n=6 rows do not report the certified engine and a bound: $(cat "$TMP/auto6.out")" ;;
esac
[ ! -s "$TMP/auto6.err" ] || fail "auto sweep n=6 emitted an unexpected note: $(cat "$TMP/auto6.err")"
"$CLI" sweep 6 2 0 1 24 --engine=exact >"$TMP/auto6.exact"
within_bound "$TMP/auto6.out" "$TMP/auto6.exact" || fail "auto n=6 values are not within their bounds of exact"

# Nothing is lowered at any n: the metrics dump shows no plan-cache miss and
# no lowering (compiled.lowerings registers on first use, so it is absent or
# zero). n = 16, t = 6 would take seconds to lower and certify only ~7e-2.
for args in "4 4/3 0.3 0.7 32" "8 8/3 0.3 0.7 32" "16 6 0.3 0.45 2"; do
  # shellcheck disable=SC2086
  "$CLI" sweep $args --metrics >"$TMP/lower.out" 2>"$TMP/lower.err" || fail "auto sweep $args failed"
  case "$(cat "$TMP/lower.out")" in
    *'"engine": "certified", "bound": '*) ;;
    *) fail "auto sweep $args rows do not report the certified engine: $(cat "$TMP/lower.out")" ;;
  esac
  if grep -q "note:" "$TMP/lower.err"; then fail "auto sweep $args printed a note: $(cat "$TMP/lower.err")"; fi
  grep -q "^engine\.cache\.misses 0$" "$TMP/lower.err" \
    || fail "auto sweep $args missed the plan cache: $(grep -E 'cache' "$TMP/lower.err")"
  if grep -Eq "^compiled\.lowerings [1-9]" "$TMP/lower.err"; then
    fail "auto sweep $args lowered a plan: $(grep -E 'lowerings' "$TMP/lower.err")"
  fi
done

# Past n = 8, and past the O(3^n) kernels' reach at n = 24, auto answers
# the same way.
for args in "18 6 0.3 0.4 2" "24 8 0.3 0.45 1"; do
  # shellcheck disable=SC2086
  big_auto="$("$CLI" sweep $args 2>"$TMP/big_auto.err")" || fail "auto sweep $args failed"
  case "$big_auto" in
    *'"engine": "certified", "bound": '*) ;;
    *) fail "auto sweep $args did not report the certified engine and a bound: $big_auto" ;;
  esac
  [ ! -s "$TMP/big_auto.err" ] || fail "auto sweep $args emitted an unexpected note: $(cat "$TMP/big_auto.err")"
done
"$CLI" sweep 16 6 0.3 0.45 2 --engine=exact >"$TMP/lower.exact"
within_bound "$TMP/lower.out" "$TMP/lower.exact" || fail "n=16 sweep values are not within their bounds of exact"

# A resident plan is used: with a store built by `plans precompile`, the same
# n = 6 sweep loads the plan (no lowering), reports the compiled engine and
# its bound, and prints exactly what forcing --engine=compiled prints.
"$CLI" plans precompile 6 2 --store="$TMP/auto_store" >/dev/null || fail "plans precompile 6 2 failed"
DDM_PLAN_STORE="$TMP/auto_store" "$CLI" sweep 6 2 0 1 24 --metrics \
  >"$TMP/stored.out" 2>"$TMP/stored.err" || fail "store-backed auto sweep failed"
case "$(cat "$TMP/stored.out")" in
  *'"engine": "compiled", "bound": '*) ;;
  *) fail "store-backed auto sweep rows do not report the compiled engine: $(cat "$TMP/stored.out")" ;;
esac
if grep -Eq "^compiled\.lowerings [1-9]" "$TMP/stored.err"; then
  fail "store-backed auto sweep lowered a plan: $(grep -E 'lowerings' "$TMP/stored.err")"
fi
compiled_out="$("$CLI" sweep 6 2 0 1 24 --engine=compiled)"
[ "$(cat "$TMP/stored.out")" = "$compiled_out" ] \
  || fail "store-backed auto output differs from --engine=compiled at n=6"

# Forcing --engine=compiled lowers on demand; an injected lowering fault
# walks the degradation chain to certified, visibly: every row names
# certified with its bound and stderr names the chain. A checkpoint pins one
# engine, so there the degraded block is an error naming the degradation.
env DDM_FAULT_PLAN=throw@0 "$CLI" sweep 6 2 0 1 4 --engine=compiled \
  >"$TMP/degraded.out" 2>"$TMP/degraded.err" || fail "degraded compiled sweep did not exit 0"
[ "$(grep -c '"engine": "certified", "bound": ' "$TMP/degraded.out")" = 5 ] \
  || fail "degraded rows are not certified rows with a bound: $(cat "$TMP/degraded.out")"
if grep -q '"engine": "compiled"' "$TMP/degraded.out"; then fail "degraded rows name compiled"; fi
grep -q "compiled: evaluation failed -> certified" "$TMP/degraded.err" \
  || fail "degradation not announced on stderr: $(cat "$TMP/degraded.err")"
expect_reject "compiled: evaluation failed -> certified" env DDM_FAULT_PLAN=throw@0 \
  "$CLI" sweep 6 2 0 1 4 --engine=compiled --checkpoint "$TMP/degraded.ckpt"

# --- scenario descriptors (engine/scenario.hpp) --------------------------
# The value set is closed, the flag grammar is strict, and every malformed
# shape is rejected naming the offending text — a generalized game must
# never silently evaluate as the homogeneous one (ctest label: scenario).
expect_reject "invalid --scenario 'bogus'" "$CLI" threshold 3 1 0.5 --scenario=bogus
expect_reject "unknown scenario" "$CLI" sweep 3 1 0 1 4 --scenario=exotic:1,2
expect_reject "--scenario requires a value" "$CLI" threshold 3 1 0.5 --scenario
expect_reject "--ranges requires a value" "$CLI" threshold 3 1 0.5 --ranges
# --ranges without (or with the wrong) scenario id is a named error.
expect_reject "--ranges requires --scenario=heterogeneous" "$CLI" threshold 3 1 0.5 --ranges=1,1,1
expect_reject "--ranges only applies to --scenario=heterogeneous" \
  "$CLI" threshold 3 1 0.5 --scenario=deviating:1 --ranges=1,1,1
expect_reject "carries its own ranges" \
  "$CLI" threshold 3 1 0.5 --scenario=heterogeneous:1,1,1 --ranges=1,1,1
expect_reject "requires per-player ranges" "$CLI" threshold 3 1 0.5 --scenario=heterogeneous
# Malformed range lists: empty entries, non-rational text, non-positive
# ranges, and a length that disagrees with the player count.
expect_reject "invalid --ranges" "$CLI" threshold 3 1 0.5 --scenario=heterogeneous --ranges=1,,2
expect_reject "invalid --ranges" "$CLI" threshold 3 1 0.5 --scenario=heterogeneous --ranges=1,x,2
expect_reject "must be > 0" "$CLI" threshold 3 1 0.5 --scenario=heterogeneous --ranges=1,0,2
expect_reject "must be > 0" "$CLI" sweep 3 1 0 1 4 --scenario=heterogeneous:1,-1,2
expect_reject "2 ranges but the request has 3 players" \
  "$CLI" threshold 3 1 0.5 --scenario=heterogeneous --ranges=1,2
expect_reject "4 ranges but the request has 3 players" \
  "$CLI" sweep 3 1 0 1 4 --scenario=heterogeneous:1,2,1,2
# Deviation counts: k = 0 and k >= n are both nonsensical.
expect_reject "deviating" "$CLI" threshold 3 1 0.5 --scenario=deviating:0
expect_reject "3 deviating players need n > 3" "$CLI" threshold 3 1 0.5 --scenario=deviating:3
# The flag set is closed per command, like --engine/--shard.
expect_reject "--scenario/--ranges are only supported by" "$CLI" oblivious 3 1 --scenario=deviating:1
expect_reject "--scenario/--ranges are only supported by" "$CLI" ladder 3 1 --ranges=1,1,1
expect_reject "--scenario/--ranges are only supported by" "$CLI" deviate 6 2 0.62 2 --scenario=deviating:2

# The deviate subcommand's own argument checking.
expect_reject "use \`ddm_cli threshold\`" "$CLI" deviate 6 2 0.62 0
expect_reject "k '6'" "$CLI" deviate 6 2 0.62 6
expect_reject "invalid n '0'" "$CLI" deviate 0 2 0.62 2
expect_reject "beta" "$CLI" deviate 6 2 1.5 2
expect_reject "trials" "$CLI" deviate 6 2 0.62 2 0

# The scenario is part of the checkpoint header: rows computed for one game
# must never resume (or merge) into another.
chet="$TMP/het.ckpt"
"$CLI" sweep 3 1 0 1 4 --scenario=heterogeneous:1/2,1,2 --checkpoint "$chet" >/dev/null \
  || fail "heterogeneous checkpointed sweep failed"
head -n 1 "$chet" | grep -q '"scenario": "heterogeneous:1/2,1,2"' \
  || fail "checkpoint header does not record the scenario"
expect_reject "field 'scenario': checkpoint heterogeneous:1/2,1,2 vs requested homogeneous" \
  "$CLI" sweep 3 1 0 1 4 --resume "$chet"
expect_reject "field 'scenario': checkpoint heterogeneous:1/2,1,2 vs requested heterogeneous:1/2,1,1" \
  "$CLI" sweep 3 1 0 1 4 --scenario=heterogeneous:1/2,1,1 --resume "$chet"
# The heterogeneous checkpoint/resume round-trip holds byte for byte.
het_ref="$("$CLI" sweep 3 1 0 1 12 --scenario=heterogeneous:1/2,1,2)"
chet2="$TMP/het2.ckpt"
"$CLI" sweep 3 1 0 1 12 --scenario=heterogeneous:1/2,1,2 --checkpoint "$chet2" >/dev/null
head -n 6 "$chet2" > "$chet2.tmp"
printf '{"k": 5, "beta":' >> "$chet2.tmp"
mv "$chet2.tmp" "$chet2"
het_resumed="$("$CLI" sweep 3 1 0 1 12 --scenario=heterogeneous:1/2,1,2 --resume "$chet2")" \
  || fail "heterogeneous resume failed"
[ "$het_ref" = "$het_resumed" ] || fail "heterogeneous resumed sweep is not byte-identical"

# A forced engine that cannot serve the game is a named error, not a silent
# substitution — the plan-based engines serve the homogeneous game only.
expect_reject "does not support" "$CLI" threshold 3 1 0.5 --scenario=deviating:1 --engine=compiled
expect_reject "does not support" "$CLI" sweep 3 1 0 1 4 --scenario=heterogeneous:1,1,1 --engine=batch

# --- per-subcommand help -------------------------------------------------
for cmd in oblivious threshold analyze simulate volume ladder sweep plans merge deviate; do
  "$CLI" help "$cmd" | grep -q "usage: ddm_cli $cmd" || fail "'help $cmd' missing synopsis"
  "$CLI" "$cmd" --help | grep -q "usage: ddm_cli $cmd" || fail "'$cmd --help' missing synopsis"
done
"$CLI" help sweep | grep -q -- "--engine" || fail "'help sweep' does not document --engine"
"$CLI" help sweep | grep -q -- "--shard" || fail "'help sweep' does not document --shard"
"$CLI" help plans | grep -q -- "--store" || fail "'help plans' does not document --store"
expect_reject "unknown command 'bogus'" "$CLI" help bogus

# --engine on the scalar subcommands: the answering engine is named.
"$CLI" threshold 3 1 0.622 --engine=exact | grep -q "\[engine: exact, deterministic\]" \
  || fail "threshold --engine=exact does not name the engine"
"$CLI" analyze 3 1 --engine=batch | grep -q "Engine cross-check \[batch\]" \
  || fail "analyze --engine=batch does not print the cross-check"
"$CLI" simulate 3 1 0.622 20000 7 --engine=compiled | grep -q "\[engine: compiled\]" \
  || fail "simulate --engine=compiled does not name the engine"

# Certified sweeps checkpoint like any other engine: --certify and
# --engine=certified print identical bytes, and a torn checkpoint resumes to
# them.
ckv="$TMP/sweep_certified.ckpt"
refv="$("$CLI" sweep 12 4 0 1 12 --certify)"
[ "$refv" = "$("$CLI" sweep 12 4 0 1 12 --engine=certified)" ] \
  || fail "--certify and --engine=certified sweeps differ"
fullv="$("$CLI" sweep 12 4 0 1 12 --certify --checkpoint "$ckv")"
[ "$refv" = "$fullv" ] || fail "certified checkpointed sweep output differs from plain certified sweep"
head -n 6 "$ckv" > "$ckv.tmp"
printf '{"k": 5, "beta":' >> "$ckv.tmp"
mv "$ckv.tmp" "$ckv"
resumedv="$("$CLI" sweep 12 4 0 1 12 --certify --resume "$ckv")"
[ "$refv" = "$resumedv" ] || fail "certified resumed sweep output is not byte-identical"

# The checkpoint/resume round-trip holds on the compiled path too.
ckc="$TMP/sweep_compiled.ckpt"
refc="$("$CLI" sweep 3 1 0 1 12 --engine=compiled)"
fullc="$("$CLI" sweep 3 1 0 1 12 --engine=compiled --checkpoint "$ckc")"
[ "$refc" = "$fullc" ] || fail "compiled checkpointed sweep output differs from plain compiled sweep"
head -n 6 "$ckc" > "$ckc.tmp"
mv "$ckc.tmp" "$ckc"
resumedc="$("$CLI" sweep 3 1 0 1 12 --engine=compiled --resume "$ckc")"
[ "$refc" = "$resumedc" ] || fail "compiled resumed sweep output is not byte-identical"

echo "cli robustness checks passed"
