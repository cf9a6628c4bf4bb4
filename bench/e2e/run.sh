#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release) and runs it.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--json FILE] [--trace-out FILE] [--smoke] [--self-test]
#
# Without --workload it runs all four workloads in turn and exits non-zero
# if any run fails a check. --json appends one JSON line per run to FILE
# (compare.py reads these). With --trace 1 and --trace-out FILE the Chrome
# trace of the run is written to FILE (FILE-<workload>.json for all four).
# The build lives in .bench_build/e2e at the repository root; its output
# goes to stderr, so the last line of stdout is a run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Keep the compiler's temporary files inside the build tree too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j "$jobs" >&2

revision="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

workload=""
trace_out=""
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

run_one() {
  local w="$1" out="$2"
  local extra=()
  if [ -n "$out" ]; then extra+=(--trace-out "$out"); fi
  "$build/e2e_bench" --workload "$w" --revision "$revision" "${args[@]}" "${extra[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$trace_out"
  exit $?
fi

status=0
for w in serve_fresh serve_repeat serve_lbebm train; do
  run_one "$w" "${trace_out:+${trace_out%.json}-$w.json}" || status=1
done
exit "$status"
