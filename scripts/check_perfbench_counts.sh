#!/usr/bin/env bash
# Exact guard on perfbench's fixed-window work counts.
#
# A --seconds 0.001 window at seed 1 runs a fixed set of operations (4
# experiments on offline_pipeline, 16 fleet runs on fleet_dynamic), so the
# work it reports is deterministic: the same simulated ticks and horizons,
# replans, B&B nodes and plan-cache traffic at any worker count. This script
# builds perfbench/ the way perfbench/run.py does, runs each workload of
# scripts/perfbench_counts.json once traced (the counts) and once untraced
# (plan_makespan_s, compared bit for bit), and fails on any value that
# differs from the file. It calls the binary directly because run.py takes
# whole seconds only. trace_events is not guarded: it varies with the worker
# count. A deliberate change of work updates the JSON in the same commit.
#
# Usage: scripts/check_perfbench_counts.sh BUILD_DIR
#   BUILD_DIR  perfbench build tree, relative to the repository root
#              (configured on first use)
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: scripts/check_perfbench_counts.sh BUILD_DIR" >&2
  exit 2
fi
BUILD_DIR=$1
EXPECTED=scripts/perfbench_counts.json

cd "$(dirname "$0")/.."

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja > /dev/null; then
    generator=(-G Ninja)
  fi
  if ! cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release \
    "${generator[@]}"; then
    rm -rf "$BUILD_DIR"
    exit 2
  fi
fi
cmake --build "$BUILD_DIR" --target perfbench perfbench_selftest -j 4

# The guarded counts are those of the default backend and thermal setting.
unset CORUN_BACKEND CORUN_THERMAL

read -r seed seconds < <(python3 -c '
import json, sys
e = json.load(open(sys.argv[1]))
print(e["seed"], e["seconds"])' "$EXPECTED")
read -r -a workloads < <(python3 -c '
import json, sys
print(" ".join(json.load(open(sys.argv[1]))["workloads"]))' "$EXPECTED")

status=0
for workload in "${workloads[@]}"; do
  if ! traced=$("$BUILD_DIR/perfbench" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 1 \
    --trace-out "$BUILD_DIR/counts-trace-$workload.json" | tail -n 1) ||
    ! untraced=$("$BUILD_DIR/perfbench" --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1); then
    echo "FAIL $workload: perfbench exited with an error" >&2
    status=1
    continue
  fi
  if ! python3 - "$EXPECTED" "$workload" "$traced" "$untraced" <<'PY'; then
import json
import sys

expected = json.load(open(sys.argv[1]))["workloads"][sys.argv[2]]
workload = sys.argv[2]
runs = {"traced": json.loads(sys.argv[3]), "untraced": json.loads(sys.argv[4])}
bad = []
for label, run in runs.items():
    if not run["correct"] or run["failed"]:
        bad.append("%s run: correct=%s failed=%s"
                   % (label, run["correct"], run["failed"]))
checks = [(name, value, runs["traced"]) for name, value
          in expected["counts"].items()]
checks.append(("plan_makespan_s", expected["plan_makespan_s"],
               runs["untraced"]))
for name, want, run in checks:
    got = run["metrics"].get(name, {}).get("value")
    if got != want:
        bad.append("%s: expected %r, got %r" % (name, want, got))
for line in bad:
    print("FAIL %s %s" % (workload, line), file=sys.stderr)
if bad:
    sys.exit(1)
print("%s: %d counts and plan_makespan_s match"
      % (workload, len(expected["counts"])))
PY
    status=1
  fi
done
exit "$status"
