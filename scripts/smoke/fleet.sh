#!/usr/bin/env bash
# Fleet smoke test: corun-fleet at 64 machines under a seeded dropout /
# cap-change event stream must be byte-identical across worker counts
# (--jobs 1 vs 4), across machine backends (--backend analytic vs the
# default event backend), across the CORUN_FLEET_STRATEGY env vs the
# --strategy flag, and with the plan cache off, in memory or on disk —
# with the cap-violation counters readable from the report and zero in
# steady state.
set -euo pipefail
# shellcheck source=scripts/smoke/common.sh
source "$(dirname "$0")/common.sh"
smoke_init fleet "$@"

EVENTS="random:dropouts=1,caps=1,horizon=40,seed=7"
"$TOOLS/corun-fleet" --machines 64 --strategy demand --jobs-spread 3 \
  --events "$EVENTS" --jobs 1 > "$WORK/fleet_j1.out"
"$TOOLS/corun-fleet" --machines 64 --strategy demand --jobs-spread 3 \
  --events "$EVENTS" --jobs 4 > "$WORK/fleet_j4.out"
cmp "$WORK/fleet_j1.out" "$WORK/fleet_j4.out"

"$TOOLS/corun-fleet" --machines 64 --strategy demand --jobs-spread 3 \
  --events "$EVENTS" --jobs 4 --backend analytic > "$WORK/fleet_ana.out"
cmp "$WORK/fleet_j4.out" "$WORK/fleet_ana.out"

CORUN_FLEET_STRATEGY=demand "$TOOLS/corun-fleet" --machines 64 --jobs-spread 3 \
  --events "$EVENTS" --jobs 4 > "$WORK/fleet_env.out"
cmp "$WORK/fleet_j4.out" "$WORK/fleet_env.out"

# The cached runs must actually store plans (a nonzero stores= on the
# stderr plan-cache line), or the cmp would compare two uncached runs.
rm -rf "$WORK/fleet_pc"  # a cold directory, so every plan is a store
for CACHE in mem "dir:$WORK/fleet_pc"; do
  "$TOOLS/corun-fleet" --machines 64 --strategy demand --jobs-spread 3 \
    --events "$EVENTS" --jobs 4 --plan-cache "$CACHE" \
    > "$WORK/fleet_pc.out" 2> "$WORK/fleet_pc.err"
  cmp "$WORK/fleet_j4.out" "$WORK/fleet_pc.out"
  grep -Eq "^plan-cache: .* stores=[1-9][0-9]* " "$WORK/fleet_pc.err"
done

# The global-cap accounting line must be present and report zero
# steady-state violations (transients inside the post-event window are
# tolerated; sustained overshoot is not).
grep -Eq "power: samples=[0-9]+ over_cap=[0-9]+ steady_over_cap=0 " \
  "$WORK/fleet_j1.out"
echo "fleet smoke OK"
