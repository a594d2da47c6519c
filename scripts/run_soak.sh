#!/usr/bin/env bash
# run_soak.sh — end-to-end soak of the ddm_serve daemon, registered as the
# ctest `serve_soak_check` (tools/CMakeLists.txt). Proves the serving
# contract under stress from the OUTSIDE:
#
#   * saturation: a tiny admission queue under concurrent clients sheds load
#     with structured `overloaded` replies — and NOTHING hangs (ddm_load
#     counts a socket timeout as a protocol failure);
#   * degradation: an injected fault plan (DDM_FAULT_PLAN) makes the
#     preferred engine fail, and the answers come back `degraded:true`
#     instead of erroring — with the shed/degraded counters visible on the
#     Prometheus /metrics endpoint;
#   * deadlines: a Monte Carlo burst under a 50 ms budget yields only typed
#     `deadline_exceeded` replies — cut mid-evaluation, never hung;
#   * drain: SIGTERM stops admission, answers queued work, and exits 0;
#   * crash tolerance: kill -9 followed by an immediate restart on the SAME
#     port binds (SO_REUSEADDR) and serves again — there is no durable state
#     to recover;
#   * determinism: the same request answered by a DDM_THREADS=1 server and a
#     DDM_THREADS=4 server is byte-identical;
#   * lean start: without a plan store the daemon lowers nothing — not at
#     pre-warm, not while answering threshold at n = 1..8;
#   * bounded threads: 300 sequential connections leave the daemon's virtual
#     size and mapping count where they were after the first 10 (finished
#     connection threads are joined, not kept until drain).
#
# Usage:
#   scripts/run_soak.sh /path/to/ddm_serve /path/to/ddm_load           # checks
#   scripts/run_soak.sh /path/to/ddm_serve /path/to/ddm_load --bench
#       Additionally runs a clean (fault-free) throughput pass and records
#       BENCH_serve.json at the repo root (req/s, p50/p99 latency), following
#       the run_bench.sh convention of committing a perf trajectory.
set -euo pipefail

SERVE="$1"
LOAD="$2"
MODE="${3:-check}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Starts a server (extra env assignments and flags as arguments), waits for
# the readiness line, and sets SERVER_PID / SERVER_PORT. Runs in the main
# shell (not a substitution) so `wait` can observe the exit status.
start_server() {
  local log="$1"
  shift
  # Created before the launch: the poll below may run before the child
  # shell has opened its redirections.
  : >"$TMP/$log.out"
  env "$@" "$SERVE" >"$TMP/$log.out" 2>"$TMP/$log.err" &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  local i
  SERVER_PORT=""
  for i in $(seq 1 100); do
    SERVER_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$TMP/$log.out")"
    [ -n "$SERVER_PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null \
      || fail "server '$log' died at startup: $(cat "$TMP/$log.err")"
    sleep 0.1
  done
  [ -n "$SERVER_PORT" ] || fail "server '$log' never printed its listening line"
}

# Sends one NDJSON line and echoes the single reply line (10 s guard).
send_request() {
  local port="$1" line="$2" reply
  exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "connect to port $port failed"
  printf '%s\n' "$line" >&3
  IFS= read -r -t 10 reply <&3 || fail "no reply within 10s for: $line"
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
}

# Extracts a numeric field from a flat JSON line (the ddm_load summary).
field() {
  printf '%s' "$1" | sed -n 's/.*"'"$2"'":\([0-9][0-9.eE+-]*\).*/\1/p'
}

# --- saturation + degradation under injected faults ----------------------
# Tiny queue, one worker, and a fault plan that outlasts every retry layer
# in front of the first evaluation's fallback: auto sends n = 12 to the
# certified ladder without lowering a plan, each ladder-region attempt
# absorbs up to 3 throws via in-region retries, and the service grants one
# request-level retry (3 + 3 = 6; 9 leaves margin), so the first threshold
# evaluation must walk the degradation chain (certified -> mc); meanwhile
# the concurrent clients must overflow the queue. Nothing may hang or fail
# the protocol.
start_server soak1 DDM_FAULT_PLAN=throw@0x9 DDM_SERVE_QUEUE=2 DDM_SERVE_WORKERS=1
pid1=$SERVER_PID port1=$SERVER_PORT
summary="$("$LOAD" "$port1" 12 25 --n=12 --t=4)" || fail "soak load failed: $summary"
echo "soak: $summary"
[ "$(field "$summary" failed)" = "0" ] || fail "protocol failures under saturation: $summary"
[ "$(field "$summary" answered)" = "300" ] || fail "not every request was answered: $summary"
shed="$(field "$summary" shed)"
degraded="$(field "$summary" degraded)"
[ "$shed" -gt 0 ] || fail "tiny queue never shed load: $summary"
[ "$degraded" -gt 0 ] || fail "injected fault plan produced no degraded answers: $summary"

# The health and metrics endpoints answer on the same port, and the shed /
# degraded counters that ddm_load saw from the outside are visible there.
health="$(send_request "$port1" '{"op":"health"}')"
case "$health" in
  *'"ok":true'*) ;;
  *) fail "health reply unexpected: $health" ;;
esac
exec 3<>"/dev/tcp/127.0.0.1/$port1"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 >"$TMP/metrics.txt"
exec 3<&- 3>&-
grep -q '^serve_requests' "$TMP/metrics.txt" || fail "/metrics lacks serve_requests"
metric_shed="$(awk '$1 == "serve_shed" { print $2 }' "$TMP/metrics.txt")"
metric_degraded="$(awk '$1 == "serve_degraded" { print $2 }' "$TMP/metrics.txt")"
[ "${metric_shed:-0}" -gt 0 ] || fail "/metrics serve_shed is not positive: $metric_shed"
[ "${metric_degraded:-0}" -gt 0 ] || fail "/metrics serve_degraded is not positive: $metric_degraded"

# --- deadline cuts --------------------------------------------------------
# Monte Carlo under a 50 ms budget: 50M trials are thousands of trial blocks
# (~seconds of work) and the parallel engine polls the deadline at every
# block claim, so each request must come back as a typed `deadline_exceeded`
# — mc is the chain tail, there is nothing to degrade to. A hang would trip
# the ddm_load timeout and fail.
deadline_summary="$("$LOAD" "$port1" 1 3 --engine=mc --n=10 --t=3 \
  --deadline-ms=50 --trials=50000000)" || fail "deadline burst failed: $deadline_summary"
echo "deadline: $deadline_summary"
[ "$(field "$deadline_summary" failed)" = "0" ] || fail "deadline burst had protocol failures"
[ "$(field "$deadline_summary" deadline)" = "3" ] \
  || fail "50ms mc burst was not cut by its deadline: $deadline_summary"

# --- graceful drain -------------------------------------------------------
kill -TERM "$pid1"
rc=0
wait "$pid1" || rc=$?
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc (stderr: $(cat "$TMP/soak1.err"))"
grep -q "drained, exiting" "$TMP/soak1.err" || fail "drain did not log its completion"

# --- crash tolerance ------------------------------------------------------
# kill -9, then an immediate restart on the SAME port: nothing to fsck, no
# lock files, no recovery protocol — bind (SO_REUSEADDR) and serve.
start_server soak2
pid2=$SERVER_PID port2=$SERVER_PORT
ok_reply="$(send_request "$port2" '{"id":"pre","op":"threshold","n":6,"t":"2","beta":0.5}')"
case "$ok_reply" in
  *'"ok":true'*) ;;
  *) fail "pre-crash request failed: $ok_reply" ;;
esac
{ kill -9 "$pid2" && wait "$pid2"; } 2>/dev/null || true
start_server soak3 DDM_SERVE_PORT="$port2"
pid3=$SERVER_PID port3=$SERVER_PORT
[ "$port3" = "$port2" ] || fail "restart bound port $port3, expected $port2"
post_reply="$(send_request "$port3" '{"id":"post","op":"threshold","n":6,"t":"2","beta":0.5}')"
[ "$post_reply" = "${ok_reply/\"id\":\"pre\"/\"id\":\"post\"}" ] \
  || fail "post-crash reply differs: $ok_reply vs $post_reply"
kill -TERM "$pid3" && wait "$pid3" || fail "restarted server did not drain cleanly"

# --- determinism across server parallelism --------------------------------
request='{"id":"det","op":"threshold","n":10,"t":"3","beta":0.456}'
start_server threads1 DDM_THREADS=1
pid_t1=$SERVER_PID port_t1=$SERVER_PORT
start_server threads4 DDM_THREADS=4
pid_t4=$SERVER_PID port_t4=$SERVER_PORT
reply_t1="$(send_request "$port_t1" "$request")"
reply_t4="$(send_request "$port_t4" "$request")"
[ "$reply_t1" = "$reply_t4" ] \
  || fail "DDM_THREADS=1 vs 4 replies differ: $reply_t1 vs $reply_t4"
kill -TERM "$pid_t1" "$pid_t4"
wait "$pid_t1" && wait "$pid_t4" || fail "thread-identity servers did not drain cleanly"

# --- lean start and bounded connection threads ----------------------------
start_server lean
pid_l=$SERVER_PID port_l=$SERVER_PORT
grep -q "pre-warmed 0 plans" "$TMP/lean.err" \
  || fail "storeless pre-warm lowered plans: $(cat "$TMP/lean.err")"
for n in 1 2 3 4 5 6 7 8; do
  reply="$(send_request "$port_l" '{"op":"threshold","n":'"$n"',"t":"'"$n"'/3","beta":0.5}')"
  case "$reply" in
    *'"ok":true'*'"engine":"certified"'*'"bound":'*) ;;
    *) fail "threshold n=$n was not a certified ladder answer: $reply" ;;
  esac
done
exec 3<>"/dev/tcp/127.0.0.1/$port_l"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 >"$TMP/lean_metrics.txt"
exec 3<&- 3>&-
# compiled_lowerings registers on first use: absent or zero both mean none.
lowered="$(awk '$1 == "compiled_lowerings" { print $2 }' "$TMP/lean_metrics.txt")"
[ "${lowered:-0}" = "0" ] || fail "storeless daemon lowered $lowered plans"

vm_and_maps() {
  printf '%s %s\n' "$(awk '/^VmSize:/ { print $2 }' "/proc/$pid_l/status")" \
    "$(wc -l <"/proc/$pid_l/maps")"
}
if [ -r "/proc/$pid_l/status" ]; then
  for i in $(seq 1 10); do send_request "$port_l" '{"op":"health"}' >/dev/null; done
  read -r vm10 maps10 <<<"$(vm_and_maps)"
  for i in $(seq 1 290); do send_request "$port_l" '{"op":"health"}' >/dev/null; done
  read -r vm300 maps300 <<<"$(vm_and_maps)"
  echo "connections: VmSize ${vm10} -> ${vm300} kB, maps ${maps10} -> ${maps300}"
  # A kept thread costs an 8 MB stack and two mappings, so 290 of them would
  # add ~2.3 GB and ~580 mappings. The allowance covers the malloc arenas
  # (64 MB reservations each) and cached stacks that overlapping connections
  # on a loaded machine may add once (up to ~150 MB observed).
  [ $((vm300 - vm10)) -le 1048576 ] \
    || fail "300 sequential connections grew VmSize from $vm10 to $vm300 kB"
  [ $((maps300 - maps10)) -le 40 ] \
    || fail "300 sequential connections grew the mapping count from $maps10 to $maps300"
fi
kill -TERM "$pid_l" && wait "$pid_l" || fail "lean server did not drain cleanly"

echo "serve soak checks passed"

# --- optional throughput recording ---------------------------------------
if [ "$MODE" = "--bench" ]; then
  start_server bench DDM_SERVE_WORKERS=2
pid_b=$SERVER_PID port_b=$SERVER_PORT
  # --warmup=5: each client absorbs the remaining cold start (connection
  # setup, first touch of the certified ladder's tables) before the recorded
  # stream, so p50/p99/max measure steady-state serving. No plan is lowered:
  # auto answers the (8, 3) stream from the ladder.
  bench_summary="$("$LOAD" "$port_b" 4 100 --n=8 --t=3 --warmup=5)" || fail "bench load failed"
  [ "$(field "$bench_summary" failed)" = "0" ] || fail "bench run had protocol failures"
  kill -TERM "$pid_b" && wait "$pid_b" || fail "bench server did not drain cleanly"
  {
    printf '{"benchmark":"ddm_serve","clients":4,"requests_per_client":100,'
    printf '"n":8,"t":"3","workers":2,"warmup_per_client":5,"summary":%s}\n' "$bench_summary"
  } >"$REPO_ROOT/BENCH_serve.json"
  echo "serve bench recorded: $bench_summary"
fi
