#!/usr/bin/env bash
# Thermal smoke test: drive corun-run's --thermal path end to end on the
# cap-drop scenario — temperatures in the power trace, the thermal summary
# line on stdout, and the determinism contract (tick vs event stepping,
# --jobs 1 vs 4) checked byte for byte. A final thermal-off run pins the
# default CSV header so thermal stays strictly opt-in.
set -euo pipefail
# shellcheck source=scripts/smoke/common.sh
source "$(dirname "$0")/common.sh"
smoke_init thermal "$@"
ensure_pipeline_fixtures

EVENTS="random:caps=1,horizon=40,seed=7"
run_thermal() { # out_prefix backend jobs
  # Every run writes the trace to the same path (then moves it aside) so
  # the "wrote power trace to ..." stdout line stays byte-comparable.
  "$TOOLS/corun-run" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
    --grid "$WORK/grid.csv" --cap 15 --events "$EVENTS" \
    --thermal on --backend "$2" --jobs "$3" \
    --power-trace "$WORK/trace.csv" > "$WORK/$1.out"
  mv "$WORK/trace.csv" "$WORK/$1.csv"
}

run_thermal thermal_event event 1
run_thermal thermal_tick tick 1
run_thermal thermal_jobs4 event 4

# Per-domain temperature columns and the summary line are present.
head -1 "$WORK/thermal_event.csv" | grep -q package_c
grep -q '^thermal:' "$WORK/thermal_event.out"

# Bit-identity: the tick oracle and a different task-pool width must
# reproduce the event run byte for byte, temperatures included.
cmp "$WORK/thermal_event.out" "$WORK/thermal_tick.out"
cmp "$WORK/thermal_event.csv" "$WORK/thermal_tick.csv"
cmp "$WORK/thermal_event.out" "$WORK/thermal_jobs4.out"
cmp "$WORK/thermal_event.csv" "$WORK/thermal_jobs4.csv"

# Thermal off keeps the pre-thermal artifact shape: no temperature columns.
"$TOOLS/corun-run" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --cap 15 --events "$EVENTS" \
  --power-trace "$WORK/thermal_off.csv" > "$WORK/thermal_off.out"
if head -1 "$WORK/thermal_off.csv" | grep -q package_c; then
  echo "error: thermal columns leaked into a thermal-off trace" >&2
  exit 1
fi
if grep -q '^thermal:' "$WORK/thermal_off.out"; then
  echo "error: thermal summary leaked into a thermal-off run" >&2
  exit 1
fi

echo "thermal smoke OK"
