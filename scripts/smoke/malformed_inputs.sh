#!/usr/bin/env bash
# Malformed-input smoke test: every text input the tools read (numeric
# flags, CSV cells, `random:` generator specs, request traces) is read
# whole and range-checked where it is read, so a bad number, nan, inf, a
# sign on a count or seed, a value out of its range or an impossible
# generator range must be a usage error: exit status 2 with exactly one
# `error:` line on stderr, never an abort (134), a hang, or a run on a
# misread value (0). A well-formed request the planners cannot plan (a cap
# below the batch's floor power, a job without profile rows) exits 1, with
# one `error:` line as well.
set -euo pipefail
# shellcheck source=scripts/smoke/common.sh
source "$(dirname "$0")/common.sh"
smoke_init malformed_inputs "$@"
ensure_pipeline_fixtures

FAILED=0
BOUND=()
if command -v timeout > /dev/null 2>&1; then BOUND=(timeout 60); fi
# expect_error STATUS LABEL COMMAND... — runs COMMAND under a timeout and
# checks its exit status and stderr.
expect_error() {
  local want=$1 label=$2
  shift 2
  local status=0
  "${BOUND[@]}" "$@" > "$WORK/malformed.out" 2> "$WORK/malformed.err" \
    || status=$?
  local lines
  lines=$(grep -c '^error: ' "$WORK/malformed.err" || true)
  if [ "$status" -ne "$want" ] || [ "$lines" -ne 1 ]; then
    echo "FAIL: $label: exit $status (want $want), $lines error line(s)" >&2
    cat "$WORK/malformed.err" >&2
    FAILED=1
  fi
}
expect_usage_error() { expect_error 2 "$@"; }
expect_refused() { expect_error 1 "$@"; }

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

# Counts and seeds are unsigned; --jobs is read by every tool that takes it.
expect_usage_error "fleet --machines -1" "$TOOLS/corun-fleet" --machines -1
expect_usage_error "fleet --jobs-per-machine -1" \
  "$TOOLS/corun-fleet" --machines 2 --jobs-per-machine -1
expect_usage_error "fleet --jobs-spread -1" \
  "$TOOLS/corun-fleet" --machines 2 --jobs-spread -1
expect_usage_error "characterize --axis-points -1" \
  "$TOOLS/corun-characterize" --out "$WORK/bad_grid.csv" --axis-points -1
ARTIFACTS=(--batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv"
           --grid "$WORK/grid.csv")
SCHEDULE=("$TOOLS/corun-schedule" "${ARTIFACTS[@]}")
for tool in "$TOOLS/corun-schedule" "$TOOLS/corun-run" "$TOOLS/corun-served"; do
  expect_usage_error "$(basename "$tool") --jobs -1" \
    "$tool" "${ARTIFACTS[@]}" --jobs -1
done
expect_usage_error "corun-profile --jobs -1" "$TOOLS/corun-profile" \
  --batch "$WORK/batch.csv" --out "$WORK/bad_profiles.csv" --jobs -1
expect_usage_error "corun-characterize --jobs -1" \
  "$TOOLS/corun-characterize" --out "$WORK/bad_grid.csv" --jobs -1
expect_usage_error "corun-fleet --jobs -1" "$TOOLS/corun-fleet" --machines 2 --jobs -1
expect_usage_error "--seed -1" "${SCHEDULE[@]}" --scheduler random --seed -1

# Range checks where each flag is read.
expect_usage_error "--cpu-levels off the ladder" \
  "$TOOLS/corun-profile" --batch "$WORK/batch.csv" --out "$WORK/bad_profiles.csv" \
  --cpu-levels 99
expect_usage_error "--gpu-levels -1" \
  "$TOOLS/corun-profile" --batch "$WORK/batch.csv" --out "$WORK/bad_profiles.csv" \
  --gpu-levels -1
expect_usage_error "--sample-seconds 0" \
  "$TOOLS/corun-profile" --batch "$WORK/batch.csv" --out "$WORK/bad_profiles.csv" \
  --online --sample-seconds 0
expect_usage_error "corun-schedule --cap 0" "${SCHEDULE[@]}" --cap 0
expect_usage_error "corun-schedule --cap -5" "${SCHEDULE[@]}" --cap -5
expect_usage_error "corun-run --cap 0" "${RUN[@]}" --cap 0
expect_usage_error "corun-schedule --policy xyz" "${SCHEDULE[@]}" --policy xyz
expect_usage_error "corun-run --policy xyz" "${RUN[@]}" --policy xyz
expect_usage_error "corun-fleet --scheduler bogus" \
  "$TOOLS/corun-fleet" --machines 2 --scheduler bogus
expect_usage_error "corun-fleet marginal --quantum 0" \
  "$TOOLS/corun-fleet" --machines 2 --strategy marginal --quantum 0
expect_usage_error "--explain with a scheduler other than hcs" \
  "${SCHEDULE[@]}" --scheduler hcs+ --explain
expect_usage_error "corun-schedule takes no --backend" \
  "${SCHEDULE[@]}" --backend tick
expect_usage_error "corun-served takes no --thermal" \
  "$TOOLS/corun-served" "${ARTIFACTS[@]}" --thermal on

# Readers that used to abort on values out of range.
printf 'instance,program,input_scale,seed\nsc,streamcluster,0,42\n' \
  > "$WORK/scale_zero.csv"
expect_usage_error "batch input_scale 0" \
  "$TOOLS/corun-schedule" --batch "$WORK/scale_zero.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv"
printf 'instance,program,input_scale,seed\nsc,streamcluster,1,42\nsc,lud,1,43\n' \
  > "$WORK/duplicate.csv"
expect_usage_error "batch duplicate instance" \
  "$TOOLS/corun-schedule" --batch "$WORK/duplicate.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv"
printf '%s\nsc,gpu,0,0,0,0.5,2,0,0\n' \
  'job,device,launch_time,phase_idx,dur_ref,compute_frac,mem_bw,llc_footprint_mb,llc_sensitivity' \
  > "$WORK/demand_zero.csv"
expect_usage_error "demand trace dur_ref 0" \
  "${RUN[@]}" --backend "replay:$WORK/demand_zero.csv"

# Well-formed requests the planners refuse: exit 1, not an abort.
expect_refused "corun-schedule --cap 1 (hcs+)" "${SCHEDULE[@]}" --cap 1 --scheduler hcs+
expect_refused "corun-schedule --cap 1 (bnb)" "${SCHEDULE[@]}" --cap 1 --scheduler bnb
printf 'instance,program,input_scale,seed\nsc,streamcluster,1,42\nextra,bfs,1,43\n' \
  > "$WORK/unprofiled.csv"
expect_refused "a batch job without profile rows" \
  "$TOOLS/corun-schedule" --batch "$WORK/unprofiled.csv" \
  --profiles "$WORK/profiles.csv" --grid "$WORK/grid.csv"

# The request trace loads before any connect, so no daemon is needed.
printf 'seq,cap,scheduler,policy,seed,jobs\n0,nan,bnb,gpu,42,\n' \
  > "$WORK/requests_nan.csv"
expect_usage_error "request trace cap nan" \
  "$TOOLS/corun-replay" --requests "$WORK/requests_nan.csv" \
  --socket "$WORK/no-daemon.sock"
printf 'seq,cap,scheduler,policy,seed,jobs\n0,0,bnb,gpu,42,\n' \
  > "$WORK/requests_zero.csv"
expect_usage_error "request trace cap 0" \
  "$TOOLS/corun-replay" --requests "$WORK/requests_zero.csv" \
  --socket "$WORK/no-daemon.sock"

[ "$FAILED" -eq 0 ]
echo "malformed inputs smoke OK"
