#!/usr/bin/env bash
# Malformed-input smoke test: every text input the tools read (numeric
# flags, CSV cells, `random:` generator specs, request traces) is read
# whole, so a bad number, nan, inf or an impossible generator range must
# be a usage error: exit status 2 with exactly one `error:` line on stderr,
# never an abort (134) and never a run on a misread value (0).
set -euo pipefail
# shellcheck source=scripts/smoke/common.sh
source "$(dirname "$0")/common.sh"
smoke_init malformed_inputs "$@"
ensure_pipeline_fixtures

FAILED=0
# expect_usage_error LABEL COMMAND... — runs COMMAND and checks its exit
# status and stderr.
expect_usage_error() {
  local label=$1
  shift
  local status=0
  "$@" > "$WORK/malformed.out" 2> "$WORK/malformed.err" || status=$?
  local lines
  lines=$(grep -c '^error: ' "$WORK/malformed.err" || true)
  if [ "$status" -ne 2 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL: $label: exit $status, $lines error line(s)" >&2
    cat "$WORK/malformed.err" >&2
    FAILED=1
  fi
}

RUN=("$TOOLS/corun-run" --batch "$WORK/batch.csv"
     --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv" --cap 15)
FAULT_HEADER='time,kind,program,input_scale,seed,target,cap,factor,duration'

expect_usage_error "generator horizon nan" \
  "${RUN[@]}" --events "random:arrivals=1,horizon=nan,seed=3"
expect_usage_error "generator cap-low above cap-high" \
  "${RUN[@]}" --events "random:caps=1,cap-low=20,cap-high=10,seed=3"
expect_usage_error "generator count with trailing text" \
  "${RUN[@]}" --events "random:arrivals=1x"
expect_usage_error "generator with an empty program pool" \
  "${RUN[@]}" --events "random:arrivals=1,programs=,seed=3"
expect_usage_error "fleet generator horizon nan" \
  "$TOOLS/corun-fleet" --machines 2 --events "random:waves=1,horizon=nan,seed=3"

printf '%s\nnan,cap,-,-,-,-,12,-,-\n' "$FAULT_HEADER" > "$WORK/fault_nan.csv"
expect_usage_error "fault CSV time nan" "${RUN[@]}" --events "$WORK/fault_nan.csv"
printf '%s\n1,arrival,lud,nan,7,-,-,-,-\n' "$FAULT_HEADER" > "$WORK/arrival_nan.csv"
expect_usage_error "fault CSV input_scale nan" \
  "${RUN[@]}" --events "$WORK/arrival_nan.csv"
printf '%s\n5x,cap,-,-,-,-,12,-,-\n' "$FAULT_HEADER" > "$WORK/fault_5x.csv"
expect_usage_error "fault CSV time 5x" "${RUN[@]}" --events "$WORK/fault_5x.csv"
printf '%s\n5,cap,-,-,-,-,12abc,-,-\n' "$FAULT_HEADER" > "$WORK/fault_cap.csv"
expect_usage_error "fault CSV cap 12abc" "${RUN[@]}" --events "$WORK/fault_cap.csv"

expect_usage_error "corun-profile level list" \
  "$TOOLS/corun-profile" --batch "$WORK/batch.csv" --out "$WORK/bad_profiles.csv" \
  --cpu-levels 0,x
printf 'instance,program,input_scale,seed\nstress,micro:abc,1.0,1\n' \
  > "$WORK/micro_abc.csv"
expect_usage_error "batch micro target abc" \
  "$TOOLS/corun-schedule" --batch "$WORK/micro_abc.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv"
expect_usage_error "numeric flag abc" \
  "$TOOLS/corun-schedule" --batch "$WORK/batch.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv" --cap abc
expect_usage_error "integer flag 1e9" "$TOOLS/corun-fleet" --machines 1e9

sed '2s/^\([^,]*\),\([^,]*\),[^,]*,/\1,\2,nan,/' "$WORK/grid.csv" \
  > "$WORK/grid_nan.csv"
grep -q ',nan,' "$WORK/grid_nan.csv"
expect_usage_error "grid cell nan" \
  "$TOOLS/corun-schedule" --batch "$WORK/batch.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid_nan.csv"

# The request trace loads before any connect, so no daemon is needed.
printf 'seq,cap,scheduler,policy,seed,jobs\n0,nan,bnb,gpu,42,\n' \
  > "$WORK/requests_nan.csv"
expect_usage_error "request trace cap nan" \
  "$TOOLS/corun-replay" --requests "$WORK/requests_nan.csv" \
  --socket "$WORK/no-daemon.sock"

[ "$FAILED" -eq 0 ]
echo "malformed inputs smoke OK"
