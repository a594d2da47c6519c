#!/usr/bin/env bash
# test_sweep_shard_merge.sh — end-to-end sharded-sweep checks registered as
# the ctest `sweep_shard_merge_check` test (tools/CMakeLists.txt), run under
# pinned DDM_THREADS values:
#
#   * a 3-way sharded sweep (`--shard=i/3`), merged by `ddm_cli merge`, is
#     byte-identical to the unsharded run — for the auto-selected engine, the
#     certified ladder (--certify) AND the seeded Monte-Carlo engine (point
#     identity: global grid indices key the per-point RNG streams);
#   * the shard assignment is recorded in the checkpoint header, a torn
#     shard checkpoint resumes to the same bytes, and rows outside the
#     shard are rejected;
#   * merge validates its inputs: a missing shard, a duplicate shard, an
#     incomplete shard, and a checkpoint from a different sweep are each
#     rejected with exit 2 naming the problem.
#
# Usage: test_sweep_shard_merge.sh /path/to/ddm_cli
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

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

# Runs the 3-way shard + merge round-trip for one engine and compares the
# merged output byte-for-byte against the unsharded golden run.
round_trip() {
  local tag="$1"
  shift
  "$CLI" sweep 6 2 0 1 12 "$@" >"$TMP/$tag.golden" \
    || fail "[$tag] unsharded sweep failed"
  local i
  for i in 0 1 2; do
    "$CLI" sweep 6 2 0 1 12 "$@" --shard=$i/3 --checkpoint "$TMP/$tag.s$i.ckpt" \
      >"$TMP/$tag.shard$i" || fail "[$tag] shard $i/3 sweep failed"
  done
  "$CLI" merge "$TMP/$tag.s0.ckpt" "$TMP/$tag.s1.ckpt" "$TMP/$tag.s2.ckpt" \
    >"$TMP/$tag.merged" || fail "[$tag] merge failed"
  cmp -s "$TMP/$tag.golden" "$TMP/$tag.merged" \
    || fail "[$tag] merged output is not byte-identical to the unsharded run"
}

# --- byte-identity: auto, seeded Monte Carlo, and certified -------------
round_trip auto
round_trip mc --engine=mc
round_trip certified --certify
# Generalized games shard and merge like the homogeneous one: the scenario
# digest rides in every checkpoint header and output row.
round_trip het --scenario=heterogeneous:1/2,1,2,1,1,2
head -n 1 "$TMP/het.s0.ckpt" | grep -q '"scenario": "heterogeneous:1/2,1,2,1,1,2"' \
  || fail "heterogeneous shard header does not record the scenario"
grep -q '"scenario": "heterogeneous:1/2,1,2,1,1,2"' "$TMP/het.merged" \
  || fail "merged heterogeneous rows do not carry the scenario"

# The shard assignment is recorded in the checkpoint header.
head -n 1 "$TMP/auto.s1.ckpt" | grep -q '"shard": "1/3"' \
  || fail "shard checkpoint header does not record the shard assignment"

# --- crash mid-shard, resume, merge again -------------------------------
# Tear the trailing row off shard 1 (simulated crash mid-write), resume it,
# and merge again: still byte-identical.
torn_resume() {
  local tag="$1"
  shift
  local lines
  lines="$(wc -l <"$TMP/$tag.s1.ckpt")"
  head -n "$((lines - 1))" "$TMP/$tag.s1.ckpt" >"$TMP/torn" && mv "$TMP/torn" "$TMP/$tag.s1.ckpt"
  printf '{"k": 10, "beta":' >>"$TMP/$tag.s1.ckpt"  # torn tail, no newline
  "$CLI" sweep 6 2 0 1 12 "$@" --shard=1/3 --resume "$TMP/$tag.s1.ckpt" >/dev/null \
    || fail "[$tag] resume of a torn shard checkpoint failed"
  "$CLI" merge "$TMP/$tag.s0.ckpt" "$TMP/$tag.s1.ckpt" "$TMP/$tag.s2.ckpt" \
    >"$TMP/$tag.remerged" || fail "[$tag] merge after shard resume failed"
  cmp -s "$TMP/$tag.golden" "$TMP/$tag.remerged" \
    || fail "[$tag] merge after a shard crash/resume is not byte-identical"
}
torn_resume auto
torn_resume certified --certify

# --- merge input validation ---------------------------------------------
expect_reject "3 shards but 2 checkpoints" \
  "$CLI" merge "$TMP/auto.s0.ckpt" "$TMP/auto.s1.ckpt"
expect_reject "more than once" \
  "$CLI" merge "$TMP/auto.s0.ckpt" "$TMP/auto.s1.ckpt" "$TMP/auto.s1.ckpt"
expect_reject "cannot read" \
  "$CLI" merge "$TMP/auto.s0.ckpt" "$TMP/auto.s1.ckpt" "$TMP/no_such.ckpt"

# A checkpoint from a different sweep (different steps) names the field.
"$CLI" sweep 6 2 0 1 8 --shard=1/3 --checkpoint "$TMP/other.ckpt" >/dev/null \
  || fail "sweep for the different-sweep fixture failed"
expect_reject "belongs to a different sweep" \
  "$CLI" merge "$TMP/auto.s0.ckpt" "$TMP/other.ckpt" "$TMP/auto.s2.ckpt"

# An incomplete shard (row missing, no torn tail) is a named error telling
# the operator which shard to resume.
lines="$(wc -l <"$TMP/auto.s2.ckpt")"
head -n "$((lines - 1))" "$TMP/auto.s2.ckpt" >"$TMP/short" && mv "$TMP/short" "$TMP/auto.s2.ckpt"
expect_reject "missing from shard 2/3" \
  "$CLI" merge "$TMP/auto.s0.ckpt" "$TMP/auto.s1.ckpt" "$TMP/auto.s2.ckpt"

echo "sweep shard merge checks passed"
