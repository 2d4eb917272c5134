#!/usr/bin/env bash
# Build, test and regenerate every paper table/figure in one go.
#
#   scripts/run_all.sh [--jobs N] [--trace DIR] [build-dir]
#
# --jobs N controls build/ctest parallelism AND every multi-run bench
# (exported as HTNOC_JOBS; bench output is byte-identical for any N).
# --trace DIR additionally captures an event trace of each bench scenario
# and writes per-scenario forensic timelines plus Perfetto-loadable JSON
# into DIR (see docs/OBSERVABILITY.md).
# Outputs: <build-dir>, test_output.txt, bench_output.txt and
# bench_timing.json (wall seconds per bench binary, kept out of
# bench_output.txt so that file stays comparable) in the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
jobs="$(nproc)"
trace_dir=""

while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      jobs="$2"
      shift 2
      ;;
    --jobs=*)
      jobs="${1#*=}"
      shift
      ;;
    --trace)
      trace_dir="$2"
      shift 2
      ;;
    --trace=*)
      trace_dir="${1#*=}"
      shift
      ;;
    -h|--help)
      sed -n '2,13p' "$0"
      exit 0
      ;;
    *)
      build_dir="$1"
      shift
      ;;
  esac
done

export HTNOC_JOBS="$jobs"

cmake -B "$build_dir" -G Ninja -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"

ctest --test-dir "$build_dir" -j "$jobs" 2>&1 | tee "$repo_root/test_output.txt"

timing="$repo_root/bench_timing.json"
{
  sep=""
  printf '{"jobs": %s, "wall_s": {' "$jobs" > "$timing"
  phase_start=$EPOCHREALTIME
  for b in "$build_dir"/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $(basename "$b") ====="
      start=$EPOCHREALTIME
      "$b"
      awk -v n="$(basename "$b")" -v s="$start" -v e="$EPOCHREALTIME" \
        -v sep="$sep" 'BEGIN { printf "%s\n  \"%s\": %.3f", sep, n, e - s }' \
        >> "$timing"
      sep=","
    fi
  done
  awk -v s="$phase_start" -v e="$EPOCHREALTIME" \
    'BEGIN { printf "\n}, \"total_s\": %.3f}\n", e - s }' >> "$timing"
} 2>&1 | tee "$repo_root/bench_output.txt"

if [ -n "$trace_dir" ]; then
  mkdir -p "$trace_dir"
  echo "===== tracing bench scenarios into $trace_dir ====="
  # The Fig. 11 cascade, end to end, with a full forensic timeline.
  "$build_dir/examples/attack_forensics" "$trace_dir"
  # One traced replay per mitigation x attack grid point of the paper's
  # core comparison; each gets a .trace.{bin,json} + .timeline.txt.
  "$build_dir/examples/sweep_cli" \
    --modes none,lob,reroute --attacks single \
    --replicates 1 --cycles 3000 --jobs "$jobs" \
    --trace "$trace_dir" >/dev/null
  echo "forensic timelines:"
  ls "$trace_dir"/*.timeline.txt
fi

echo "done: test_output.txt, bench_output.txt and bench_timing.json written to $repo_root"
