#!/usr/bin/env bash
# Determinism regression for the protocol experiments.
#
# The experiment benches emit one JsonLine record per protocol experiment;
# every field in those records is a protocol outcome (completion counts,
# simulated latencies, evidence checks) — nothing wall-clock. The runtime's
# contract says those outcomes are a pure function of the seed, so the
# emitted records must be BYTE-IDENTICAL:
#   * to the committed golden records in tests/golden/<record>.jsonl (one
#     serial run per bench at full size), so any change to a protocol
#     outcome shows up as a reviewed diff of those files,
#   * across repeated runs of the same binary (no hidden global state), and
#   * across shard/worker configurations TPNR_SHARDS=1,2,4 x TPNR_WORKERS=1,4
#     (shard-count and thread-count invariance).
#
# Usage: bench_determinism.sh <dir-with-bench-binaries>
#        bench_determinism.sh --update <dir-with-bench-binaries>
# --update rewrites the golden records from the given binaries and stops.
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
  UPDATE=1
  shift
fi
BENCH_DIR="${1:?usage: bench_determinism.sh [--update] <bench-dir>}"
GOLDEN_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/../golden" && pwd)"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# binary:record — the gated records are the '"bench":"<record>"' lines.
GOLDEN_BENCHES=(bench_audit_detection:audit_detection bench_chaos:chaos
                bench_dyn_audit:dyn_audit bench_fork_detection:fork_detection
                bench_fig6_tpnr_modes:fig6_tpnr_modes)

status=0

# Step 1: one serial run per bench against its golden file. Full dyn and
# fork grids, 6 chaos trials per configuration.
for entry in "${GOLDEN_BENCHES[@]}"; do
  binary="${entry%%:*}"
  record="${entry##*:}"
  golden="$GOLDEN_DIR/$record.jsonl"
  if [[ ! -x "$BENCH_DIR/$binary" ]]; then
    echo "SKIP: $BENCH_DIR/$binary not built" >&2
    continue
  fi
  raw="$WORKDIR/$record.golden.raw"
  env -u TPNR_DYN_MAX_CHUNKS -u TPNR_FORK_SWEEP TPNR_CHAOS_TRIALS=6 \
    TPNR_SHARDS=1 TPNR_WORKERS=1 TPNR_BENCH_JSON="$raw" \
    "$BENCH_DIR/$binary" --benchmark_filter=NONE >/dev/null
  # process_meta records carry the config itself (shards/workers/RSS) and
  # are config-dependent BY DESIGN; they are never part of a golden record.
  grep "\"bench\":\"$record\"" "$raw" | grep -v '"record":"process_meta"' \
    > "$WORKDIR/$record.golden" || true
  if [[ "$UPDATE" -eq 1 ]]; then
    cp "$WORKDIR/$record.golden" "$golden"
    echo "UPDATED: $golden ($(wc -l < "$golden") records)"
  elif diff -u "$golden" "$WORKDIR/$record.golden" >/dev/null; then
    echo "OK:   $binary matches $golden"
  else
    echo "FAIL: $binary diverged from $golden:" >&2
    diff -u "$golden" "$WORKDIR/$record.golden" >&2 || true
    status=1
  fi
done
if [[ "$UPDATE" -eq 1 ]]; then
  exit 0
fi

# Step 2: small instances across shard/worker configurations — invariance
# does not depend on workload size.
export TPNR_CHAOS_TRIALS=6
export TPNR_DYN_MAX_CHUNKS=64
export TPNR_FORK_SWEEP=small

run_bench() { # <binary> <tag> <shards> <workers> -> path of captured JsonLine
  local binary="$1" tag="$2" shards="$3" workers="$4"
  local out="$WORKDIR/${binary}.${tag}.jsonl"
  TPNR_BENCH_JSON="$out.raw" TPNR_SHARDS="$shards" TPNR_WORKERS="$workers" \
    "$BENCH_DIR/$binary" --benchmark_filter=NONE >/dev/null
  grep -v '"record":"process_meta"' "$out.raw" > "$out" || true
  echo "$out"
}

for binary in bench_fig6_tpnr_modes bench_chaos bench_dyn_audit bench_fork_detection; do
  if [[ ! -x "$BENCH_DIR/$binary" ]]; then
    echo "SKIP: $BENCH_DIR/$binary not built" >&2
    continue
  fi
  baseline="$(run_bench "$binary" baseline 1 1)"
  for config in repeat:1:1 s2w1:2:1 s4w1:4:1 s4w4:4:4; do
    IFS=: read -r tag shards workers <<< "$config"
    candidate="$(run_bench "$binary" "$tag" "$shards" "$workers")"
    if diff -u "$baseline" "$candidate" >/dev/null; then
      echo "OK:   $binary $tag (shards=$shards workers=$workers) matches baseline"
    else
      echo "FAIL: $binary $tag (shards=$shards workers=$workers) diverged:" >&2
      diff -u "$baseline" "$candidate" >&2 || true
      status=1
    fi
  done
done

if [[ "$status" -eq 0 ]]; then
  echo "bench determinism: all runs byte-identical"
else
  echo "bench determinism: DIVERGENCE DETECTED" >&2
fi
exit "$status"
