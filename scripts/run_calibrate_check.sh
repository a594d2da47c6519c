#!/usr/bin/env bash
# run_calibrate_check.sh — end-to-end calibration check, registered as the
# opt-in ctest `policy_calibration_check` (configure with -DDDM_BENCH_CHECK=ON;
# `ctest -L bench` then runs it together with the perf-regression gate).
#
# The profile-guided dispatch contract at the CLI surface
# (docs/performance.md §7):
#   * `ddm_cli calibrate` on a tiny grid writes a loadable, checksummed
#     policy table and reports its cells as JSON;
#   * a sweep with the table loaded produces BYTE-IDENTICAL numeric output
#     to the same sweep without it — the model may reroute dispatch only
#     between engines whose values already agree at the request tolerance,
#     so calibration is unobservable in the numbers;
#   * the --metrics exposition proves the model was actually consulted
#     (engine.policy.loaded = 1, engine.policy.consults >= 1) and that an
#     unconfigured run stays on the static rule (loaded = 0);
#   * the table round-trips through both knobs (--policy and DDM_POLICY);
#   * a malformed calibrate invocation exits 2.
#
# Usage: run_calibrate_check.sh /path/to/ddm_cli
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

policy_metric() {
  # One engine.policy.* value from the --metrics exposition (stderr).
  local name="$1"
  shift
  env "$@" "$CLI" sweep 6 2 0 1 32 --metrics 2>&1 >/dev/null \
    | awk -v name="$name" '$1 == name { print $2 }'
}

TABLE="$TMP/policy.ddmpolicy"

# --- calibrate writes a loadable table ------------------------------------
"$CLI" calibrate 8 --policy="$TABLE" >"$TMP/cells.json" 2>"$TMP/calibrate.err" \
  || fail "calibrate exited non-zero: $(cat "$TMP/calibrate.err")"
[ -s "$TABLE" ] || fail "calibrate wrote no table at $TABLE"
grep -q "^ddmpolicy v" "$TABLE" || fail "table lacks the ddmpolicy magic line"
grep -q "^checksum " "$TABLE" || fail "table lacks its checksum trailer"
grep -q '"engine"' "$TMP/cells.json" || fail "calibrate reported no JSON cells"
grep -q "wrote" "$TMP/calibrate.err" || fail "calibrate did not report its output path"

# --- the table never changes the numbers ----------------------------------
# n=6: the compiled certificate clears the default tolerance, so compiled is
# admissible both ways once its plan is resident, and with none resident the
# certified ladder answers both ways. n=12, t=4: no resident plan, so the
# certified ladder answers both ways. Both sweeps must be
# byte-identical with the table loaded.
for args in "6 2 0 1 64" "12 4 0 1 32"; do
  # shellcheck disable=SC2086
  ref="$("$CLI" sweep $args)"
  # shellcheck disable=SC2086
  via_flag="$("$CLI" sweep $args --policy="$TABLE")"
  [ "$ref" = "$via_flag" ] || fail "sweep $args differs with --policy loaded"
  # shellcheck disable=SC2086
  via_env="$(env DDM_POLICY="$TABLE" "$CLI" sweep $args)"
  [ "$ref" = "$via_env" ] || fail "sweep $args differs with DDM_POLICY loaded"
done

# --- the model is consulted, and only when configured ---------------------
[ "$(policy_metric engine.policy.loaded)" = "0" ] \
  || fail "engine.policy.loaded is not 0 without a table"
[ "$(policy_metric engine.policy.loaded DDM_POLICY="$TABLE")" = "1" ] \
  || fail "engine.policy.loaded is not 1 under DDM_POLICY"
consults="$(policy_metric engine.policy.consults DDM_POLICY="$TABLE")"
[ -n "$consults" ] && [ "$consults" -ge 1 ] \
  || fail "engine.policy.consults not positive under DDM_POLICY: '$consults'"

# --- malformed invocations exit 2 -----------------------------------------
for bad in "0" "99" "not-a-number"; do
  rc=0
  "$CLI" calibrate "$bad" --policy="$TMP/bad.ddmpolicy" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "calibrate $bad exited $rc, expected 2"
done
rc=0
env -u DDM_PLAN_STORE "$CLI" calibrate 4 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "calibrate without an output location exited $rc, expected 2"

echo "calibrate checks passed"
