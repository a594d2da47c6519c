#!/usr/bin/env bash
# run_trace_check.sh — end-to-end validation of the observability layer,
# registered as the ctest `cli_trace_check` test (tools/CMakeLists.txt).
#
# Two contracts are checked:
#
#   1. A traced certified sweep produces well-formed Chrome trace_event JSON
#      (parses, complete "X" events, spans for the parallel chunks / certify
#      tiers / kernels present, and the intervals of every tid nest properly
#      — RAII spans close on the thread that opened them, so any overlap
#      would be an exporter or clock bug); the compiled, engine and symbolic
#      (`analyze`) layers carry their own spans and counters.
#
#   2. Tracing is observation only: the numeric output of a sweep (and of
#      `analyze`) is byte-identical with --trace on and off, under
#      DDM_THREADS=1 and 4.
#
# Usage: run_trace_check.sh /path/to/ddm_cli
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

# --- 1. traced certified sweep produces valid, nesting Chrome trace JSON ---
trace="$TMP/sweep_trace.json"
"$CLI" sweep 20 8 0.3 0.45 8 --certify --trace="$trace" > "$TMP/certified.out" \
  || fail "traced certified sweep failed"
[ -s "$trace" ] || fail "trace file is empty"

python3 - "$trace" <<'PY' || fail "trace JSON validation failed"
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

events = doc["traceEvents"]
assert events, "no trace events recorded"

names = set()
by_tid = {}
for e in events:
    assert e["ph"] == "X", f"unexpected phase {e['ph']!r}"
    assert isinstance(e["ts"], (int, float)) and isinstance(e["dur"], (int, float))
    assert e["dur"] >= 0, "negative duration"
    names.add(e["name"])
    by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))

# The certified sweep must have produced spans at every instrumented layer.
for required in ("cli.sweep", "parallel.chunk", "certify.tier"):
    assert required in names, f"missing span {required!r} (have {sorted(names)})"
assert any(n.startswith("kernel.") for n in names), f"no kernel spans (have {sorted(names)})"

# Per-tid intervals must nest: sweeping the sorted starts with an end-time
# stack, each new interval either fits inside the stack top or starts after
# it ends — a partial overlap is a violation.
for tid, spans in by_tid.items():
    stack = []
    for start, end in sorted(spans):
        while stack and start >= stack[-1]:
            stack.pop()
        if stack and end > stack[-1] + 1e-9:
            raise AssertionError(f"tid {tid}: span [{start}, {end}) overlaps enclosing end {stack[-1]}")
        stack.append(end)

print(f"trace ok: {len(events)} events, {len(by_tid)} threads, {len(names)} span names")
PY

# --- 1b. the certified engine's fan-out rule --------------------------------
# A grid whose tier-0 arithmetic costs less than starting a thread runs as
# one chunk on the calling thread: every span of the 33-point n = 16 and
# n = 4 sweeps shares one thread id. A dense grid still spreads its chunks
# over the lanes (at n = 4 it must run as more chunks than lanes, since each
# outer term's fixed cost is what a chunk is sized by), and so does a grid
# whose tolerance (1e-15) lies below tier 0's bound, where every point
# escalates to the exact rung.
tids() {
  python3 - "$@" <<'PY'
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
name = sys.argv[2] if len(sys.argv) > 2 else None
print(len({e["tid"] for e in events if name is None or e["name"] == name}))
PY
}
chunks() {
  python3 - "$1" <<'PY'
import json, sys

print(sum(e["name"] == "parallel.chunk" for e in json.load(open(sys.argv[1]))["traceEvents"]))
PY
}
DDM_THREADS=4 "$CLI" sweep 16 16/3 307/1024 707/1024 32 --trace="$TMP/small.json" > /dev/null \
  || fail "traced small sweep failed"
[ "$(chunks "$TMP/small.json")" -eq 1 ] \
  || fail "the 33-point n = 16 sweep ran as $(chunks "$TMP/small.json") chunks"
[ "$(tids "$TMP/small.json")" -eq 1 ] \
  || fail "the 33-point n = 16 sweep spread over $(tids "$TMP/small.json") threads"
DDM_THREADS=4 "$CLI" sweep 4 4/3 307/1024 707/1024 32 --trace="$TMP/small4.json" > /dev/null \
  || fail "traced small n = 4 sweep failed"
[ "$(chunks "$TMP/small4.json")" -eq 1 ] \
  || fail "the 33-point n = 4 sweep ran as $(chunks "$TMP/small4.json") chunks"
[ "$(tids "$TMP/small4.json")" -eq 1 ] \
  || fail "the 33-point n = 4 sweep spread over $(tids "$TMP/small4.json") threads"
DDM_THREADS=4 "$CLI" sweep 4 4/3 0 1 16384 --trace="$TMP/dense4.json" > /dev/null \
  || fail "traced dense n = 4 sweep failed"
[ "$(chunks "$TMP/dense4.json")" -gt 4 ] \
  || fail "the 16,385-point n = 4 sweep ran as $(chunks "$TMP/dense4.json") chunks"
DDM_THREADS=4 "$CLI" sweep 8 8/3 0 1 16384 --trace="$TMP/dense.json" > /dev/null \
  || fail "traced dense sweep failed"
[ "$(tids "$TMP/dense.json" parallel.chunk)" -gt 1 ] \
  || fail "the 16,385-point n = 8 sweep ran on one thread"
DDM_THREADS=4 "$CLI" sweep 64 64/3 0.3 0.45 8 --certify=1/1000000000000000 \
  --trace="$TMP/escalated.json" > /dev/null || fail "traced escalating sweep failed"
python3 - "$TMP/escalated.json" <<'PY' || fail "escalating sweep did not escalate every point"
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
exact = [e for e in events
         if e["name"] == "certify.tier" and e.get("args", {}).get("tier") == "exact"]
assert len(exact) == 9, f"{len(exact)} of 9 points reached the exact rung"
PY
[ "$(tids "$TMP/escalated.json" parallel.chunk)" -gt 1 ] \
  || fail "the escalating sweep ran on one thread"

# --- 2. tracing and metrics never perturb the numeric output --------------
for nthreads in 1 4; do
  plain="$(DDM_THREADS=$nthreads "$CLI" sweep 16 6 0.3 0.45 8)"
  traced="$(DDM_THREADS=$nthreads "$CLI" sweep 16 6 0.3 0.45 8 --trace="$TMP/d$nthreads.json")"
  [ "$plain" = "$traced" ] || fail "DDM_THREADS=$nthreads: sweep output differs with --trace"
  metered="$(DDM_THREADS=$nthreads "$CLI" sweep 16 6 0.3 0.45 8 --metrics 2>/dev/null)"
  [ "$plain" = "$metered" ] || fail "DDM_THREADS=$nthreads: sweep output differs with --metrics"
done
one="$(DDM_THREADS=1 "$CLI" sweep 16 6 0.3 0.45 8)"
four="$(DDM_THREADS=4 "$CLI" sweep 16 6 0.3 0.45 8)"
[ "$one" = "$four" ] || fail "sweep output differs between DDM_THREADS=1 and 4"

# --- 3. the compiled engine honours the same observation-only contract ----
for nthreads in 1 4; do
  plain="$(DDM_THREADS=$nthreads "$CLI" sweep 12 4 0.2 0.8 16 --engine=compiled)"
  traced="$(DDM_THREADS=$nthreads "$CLI" sweep 12 4 0.2 0.8 16 --engine=compiled \
            --trace="$TMP/compiled$nthreads.json")"
  [ "$plain" = "$traced" ] || fail "DDM_THREADS=$nthreads: compiled sweep output differs with --trace"
  metered="$(DDM_THREADS=$nthreads "$CLI" sweep 12 4 0.2 0.8 16 --engine=compiled --metrics 2>/dev/null)"
  [ "$plain" = "$metered" ] || fail "DDM_THREADS=$nthreads: compiled sweep output differs with --metrics"
done
one="$(DDM_THREADS=1 "$CLI" sweep 12 4 0.2 0.8 16 --engine=compiled)"
four="$(DDM_THREADS=4 "$CLI" sweep 12 4 0.2 0.8 16 --engine=compiled)"
[ "$one" = "$four" ] || fail "compiled sweep output differs between DDM_THREADS=1 and 4"

# The compiled run's trace must show the pipeline actually engaged: the
# engine layer's selection and cache spans, one lowering span, and the
# grid-evaluation span.
python3 - "$TMP/compiled4.json" <<'PY' || fail "compiled trace span validation failed"
import json, sys

with open(sys.argv[1]) as f:
    names = {e["name"] for e in json.load(f)["traceEvents"]}
for required in ("cli.sweep", "engine.select", "engine.cache",
                 "compiled.lower", "compiled.eval_grid"):
    assert required in names, f"missing span {required!r} (have {sorted(names)})"
assert not any(n.startswith("kernel.") for n in names), \
    f"compiled sweep fell back to the kernel (have {sorted(names)})"
print(f"compiled trace ok: {len(names)} span names")
PY

# --- 4. the engine layer's spans and plan-cache metrics -------------------
# A cold auto sweep resolves through engine.select, asks the plan cache for a
# resident plan (one engine.cache span, a miss that lowers nothing and
# counts nothing), and is answered by the certified ladder. The exported
# trace must carry both spans with their chosen/hit args and no
# compiled.lower span, and the metrics registry must agree.
auto_trace="$TMP/auto_engine.json"
DDM_THREADS=4 "$CLI" sweep 6 2 0 1 16 --trace="$auto_trace" --metrics \
  > /dev/null 2> "$TMP/auto_engine.metrics" || fail "traced auto sweep failed"
python3 - "$auto_trace" <<'PY' || fail "engine span validation failed"
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
selects = [e for e in events if e["name"] == "engine.select"]
caches = [e for e in events if e["name"] == "engine.cache"]
assert selects, "no engine.select span"
assert caches, "no engine.cache span"
assert all(e.get("args", {}).get("chosen") == "certified" for e in selects), \
    f"engine.select args are not chosen=certified: {[e.get('args') for e in selects]}"
hits = [e.get("args", {}).get("hit") for e in caches]
assert hits == [0], f"expected one resident-plan lookup that found nothing, got hit args {hits}"
lowerings = [e for e in events if e["name"] == "compiled.lower"]
assert not lowerings, f"auto lowered a plan: {len(lowerings)} compiled.lower spans"
print(f"engine spans ok: {len(selects)} select, {len(caches)} cache, no lowering")
PY
grep -q "engine.selects 1" "$TMP/auto_engine.metrics" || fail "engine.selects counter missing"
grep -q "engine.cache.misses 0" "$TMP/auto_engine.metrics" || fail "engine.cache.misses != 0"
grep -q "engine.cache.hits 0" "$TMP/auto_engine.metrics" || fail "engine.cache.hits != 0"

# A checkpointed compiled sweep evaluates in blocks of 8: the second and
# third identical requests must hit the cached plan instead of re-lowering.
DDM_THREADS=1 "$CLI" sweep 6 2 0 1 16 --engine=compiled \
  --checkpoint "$TMP/cache.ckpt" --metrics > /dev/null 2> "$TMP/cache.metrics" \
  || fail "checkpointed compiled sweep failed"
grep -q "engine.cache.misses 1" "$TMP/cache.metrics" || fail "blocked sweep re-lowered the plan"
grep -q "engine.cache.hits 2" "$TMP/cache.metrics" \
  || fail "blocked sweep did not hit the plan cache: $(grep engine "$TMP/cache.metrics")"

# --- 5. the symbolic optimizer's spans and counters -------------------------
# A traced `analyze 12 4` must show both phases — the integer build of the
# pieces and the pruned maximization — each with its n and pieces args, and
# --metrics must count the pieces the Bernstein bounds pruned and the ones
# searched for critical points. Output stays byte-identical.
analyze_plain="$("$CLI" analyze 12 4)"
analyze_traced="$("$CLI" analyze 12 4 --trace="$TMP/analyze.json" --metrics 2> "$TMP/analyze.metrics")"
[ "$analyze_plain" = "$analyze_traced" ] || fail "analyze output differs with --trace/--metrics"
python3 - "$TMP/analyze.json" <<'PY' || fail "analyze span validation failed"
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
for required in ("core.analysis.build", "poly.maximize"):
    spans = [e for e in events if e["name"] == required]
    assert len(spans) == 1, f"expected one {required!r} span, got {len(spans)}"
    args = spans[0].get("args", {})
    assert args.get("n") == 12, f"{required}: n arg {args.get('n')!r}"
    assert args.get("pieces", 0) > 1, f"{required}: pieces arg {args.get('pieces')!r}"
print(f"analyze spans ok: {len(events)} events")
PY
grep -Eq "poly.maximize.pieces_pruned [1-9]" "$TMP/analyze.metrics" \
  || fail "poly.maximize.pieces_pruned missing or zero"
grep -q "poly.maximize.pieces_isolated 1" "$TMP/analyze.metrics" \
  || fail "poly.maximize.pieces_isolated != 1: $(grep poly.maximize "$TMP/analyze.metrics")"

echo "trace checks passed"
