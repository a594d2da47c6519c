#!/usr/bin/env bash
# test_plan_store.sh — end-to-end plan-store checks registered as the ctest
# `plan_store_check` test (tools/CMakeLists.txt):
#
#   * `ddm_cli plans precompile` ships ahead-of-time plans with their
#     rational max-error certificates; list/validate agree they are valid;
#   * a store-backed sweep answers from the store without lowering
#     (engine.store.hits >= 1, compiled.lowerings == 0) and its output is
#     byte-identical to a storeless run;
#   * every corruption class (bit-flipped payload, truncation, stale format
#     version) is rejected at load with a typed message — and the evaluator
#     falls through to lowering, counting the reject, never serving a wrong
#     plan (output still byte-identical);
#   * when a second argument (the ddm_serve binary) is given: a store-backed
#     cold start answers its first compiled query without lowering, verified
#     through the /metrics endpoint.
#
# Usage: test_plan_store.sh /path/to/ddm_cli [/path/to/ddm_serve]
set -euo pipefail

CLI="$1"
SERVE="${2:-}"
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  local pid
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Echoes the value of one counter from a --metrics=prom stderr dump.
metric() {
  awk -v name="$2" '$1 == name { print $2 }' "$1"
}

# --- precompile / list / validate ---------------------------------------
"$CLI" plans precompile 6 2 --store="$TMP/store" >"$TMP/pre.txt" 2>"$TMP/pre.err" \
  || fail "plans precompile failed: $(cat "$TMP/pre.err")"
count="$(ls "$TMP/store"/*.plan | wc -l)"
[ "$count" -eq 6 ] || fail "precompile n<=6 stored $count plans, expected 6"
grep -q '"n": 6, "t": "2", "stored": true' "$TMP/pre.txt" \
  || fail "precompile output does not report (n=6, t=2) as stored"

"$CLI" plans list --store="$TMP/store" >"$TMP/list.txt" 2>&1 \
  || fail "plans list failed on a healthy store"
[ "$(grep -c '"valid": true' "$TMP/list.txt")" -eq 6 ] \
  || fail "plans list does not report 6 valid plans"
"$CLI" plans validate --store="$TMP/store" >/dev/null 2>&1 \
  || fail "plans validate failed on a healthy store"

# --- store-backed sweep: no lowering, byte-identical output -------------
"$CLI" sweep 6 2 0 1 8 --engine=compiled >"$TMP/cold.txt" \
  || fail "storeless sweep failed"
DDM_PLAN_STORE="$TMP/store" "$CLI" sweep 6 2 0 1 8 --engine=compiled \
  --metrics=prom >"$TMP/warm.txt" 2>"$TMP/warm.prom" \
  || fail "store-backed sweep failed"
cmp -s "$TMP/cold.txt" "$TMP/warm.txt" \
  || fail "store-backed sweep output differs from the storeless run"
hits="$(metric "$TMP/warm.prom" engine_store_hits)"
lowerings="$(metric "$TMP/warm.prom" compiled_lowerings)"
[ "${hits:-0}" -ge 1 ] || fail "store-backed sweep reports engine_store_hits=$hits, expected >= 1"
[ "${lowerings:-1}" -eq 0 ] || fail "store-backed sweep lowered anyway (compiled_lowerings=$lowerings)"

# --- corruption: typed rejection, fall through to lowering --------------
# Flip one coefficient byte near the end of the payload: overwrite it with a
# value guaranteed to differ (0xAA, or 0x55 if it already was 0xAA).
size="$(stat -c %s "$TMP/store/n6_t2.plan")"
orig="$(dd if="$TMP/store/n6_t2.plan" bs=1 count=1 skip=$((size - 5)) 2>/dev/null | od -An -tu1 | tr -d ' ')"
byte='\252'
[ "$orig" = "170" ] && byte='\125'
printf "$byte" | dd of="$TMP/store/n6_t2.plan" bs=1 count=1 seek=$((size - 5)) conv=notrunc 2>/dev/null

rc=0
"$CLI" plans validate --store="$TMP/store" >"$TMP/val.txt" 2>&1 || rc=$?
[ "$rc" -eq 3 ] || fail "plans validate exited $rc on a corrupt store, expected 3"
grep -q "payload checksum mismatch" "$TMP/val.txt" \
  || fail "corrupt plan not rejected with a checksum message: $(cat "$TMP/val.txt")"

DDM_PLAN_STORE="$TMP/store" "$CLI" sweep 6 2 0 1 8 --engine=compiled \
  --metrics=prom >"$TMP/corrupt.txt" 2>"$TMP/corrupt.prom" \
  || fail "sweep against a corrupt store must fall through to lowering, not fail"
cmp -s "$TMP/cold.txt" "$TMP/corrupt.txt" \
  || fail "sweep served a wrong plan from a corrupt store (output differs)"
rejects="$(metric "$TMP/corrupt.prom" engine_store_rejects)"
relowered="$(metric "$TMP/corrupt.prom" compiled_lowerings)"
[ "${rejects:-0}" -ge 1 ] || fail "corrupt store hit not counted (engine_store_rejects=$rejects)"
[ "${relowered:-0}" -ge 1 ] || fail "corrupt store did not fall through to lowering"

# Truncation: cut the payload short.
head -c 100 "$TMP/store/n4_t2.plan" >"$TMP/t.plan" && mv "$TMP/t.plan" "$TMP/store/n4_t2.plan"
rc=0
"$CLI" plans validate --store="$TMP/store" >"$TMP/val2.txt" 2>&1 || rc=$?
[ "$rc" -eq 3 ] || fail "plans validate exited $rc on a truncated plan, expected 3"
grep -q "truncated" "$TMP/val2.txt" \
  || fail "truncated plan not named as truncated: $(cat "$TMP/val2.txt")"

# Stale format version (header version bumped; must be reported as stale,
# distinguishable from corruption, before any checksum verdict).
printf '\052' | dd of="$TMP/store/n5_t2.plan" bs=1 count=1 seek=8 conv=notrunc 2>/dev/null
"$CLI" plans list --store="$TMP/store" >"$TMP/list2.txt" 2>&1 || true
grep -q '"stale": true' "$TMP/list2.txt" \
  || fail "stale-version plan not flagged stale: $(cat "$TMP/list2.txt")"
grep -q "stale format version" "$TMP/list2.txt" \
  || fail "stale-version message missing: $(cat "$TMP/list2.txt")"

# --- ddm_serve warm start (optional) ------------------------------------
if [ -n "$SERVE" ]; then
  rm -rf "$TMP/store"
  "$CLI" plans precompile 6 2 --store="$TMP/store" >/dev/null 2>&1 \
    || fail "re-precompile for the serve check failed"
  # Created before the launch: the poll below may run before the child
  # shell has opened its redirections.
  : >"$TMP/serve.out"
  env DDM_SERVE_PORT=0 DDM_SERVE_WORKERS=1 "$SERVE" --plan-store="$TMP/store" \
    >"$TMP/serve.out" 2>"$TMP/serve.err" &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$TMP/serve.out")"
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null \
      || fail "ddm_serve died at startup: $(cat "$TMP/serve.err")"
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "ddm_serve never printed its listening line"
  grep -q "plan store '$TMP/store' (warm start)" "$TMP/serve.err" \
    || fail "ddm_serve did not announce the warm start: $(cat "$TMP/serve.err")"

  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect to port $PORT failed"
  printf '{"op":"threshold","n":6,"t":"2","beta":0.5,"engine":"compiled"}\n' >&3
  reply=""
  read -r -t 10 reply <&3 || fail "first store-backed query hung"
  exec 3>&- 3<&-
  case "$reply" in
    *'"ok":true'*) ;;
    *) fail "first store-backed query failed: $reply" ;;
  esac

  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "metrics connect failed"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  cat <&3 >"$TMP/serve_metrics.txt"
  exec 3>&- 3<&-
  serve_hits="$(metric "$TMP/serve_metrics.txt" engine_store_hits)"
  serve_lowerings="$(metric "$TMP/serve_metrics.txt" compiled_lowerings)"
  [ "${serve_hits:-0}" -ge 1 ] \
    || fail "warm-started ddm_serve reports engine_store_hits=$serve_hits, expected >= 1"
  [ "${serve_lowerings:-1}" -eq 0 ] \
    || fail "warm-started ddm_serve lowered its first query (compiled_lowerings=$serve_lowerings)"

  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
fi

echo "plan store checks passed"
