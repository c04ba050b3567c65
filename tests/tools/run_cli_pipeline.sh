#!/bin/sh
# End-to-end smoke test of the command-line pipeline:
#   profile (offline + online) -> characterize -> schedule (+plan file,
#   +explain) -> run (scheduler and saved plan, with gantt + trace).
# Usage: run_cli_pipeline.sh <tools-dir>
set -eu

TOOLS="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > batch.csv <<EOF
instance,program,input_scale,seed
sc,streamcluster,1.0,42
dwt,dwt2d,1.0,43
lud,lud,0.9,44
stress,micro:7.7,1.0,45
EOF

echo "== corun-profile (offline, sparse) =="
"$TOOLS/corun-profile" --batch batch.csv --out profiles.csv \
    --cpu-levels 0,5,10 --gpu-levels 0,4
test -s profiles.csv

echo "== corun-profile (online) =="
"$TOOLS/corun-profile" --batch batch.csv --out profiles_online.csv --online \
    --sample-seconds 2.0
test -s profiles_online.csv

echo "== corun-characterize =="
"$TOOLS/corun-characterize" --out grid.csv --axis-points 4 --jobs 1
test -s grid.csv

echo "== corun-characterize --jobs N is byte-identical to --jobs 1 =="
"$TOOLS/corun-characterize" --out grid_par.csv --axis-points 4 --jobs 4
cmp grid.csv grid_par.csv

echo "== corun-profile --jobs N is byte-identical to --jobs 1 =="
"$TOOLS/corun-profile" --batch batch.csv --out profiles_par.csv \
    --cpu-levels 0,5,10 --gpu-levels 0,4 --jobs 4
cmp profiles.csv profiles_par.csv

echo "== --backend tick is byte-identical to --backend event =="
"$TOOLS/corun-characterize" --out grid_tick.csv --axis-points 4 \
    --backend tick
"$TOOLS/corun-characterize" --out grid_event.csv --axis-points 4 \
    --backend event
cmp grid_tick.csv grid_event.csv
"$TOOLS/corun-profile" --batch batch.csv --out profiles_tick.csv \
    --cpu-levels 0,5,10 --gpu-levels 0,4 --backend tick
"$TOOLS/corun-profile" --batch batch.csv --out profiles_event.csv \
    --cpu-levels 0,5,10 --gpu-levels 0,4 --backend event
cmp profiles_tick.csv profiles_event.csv

echo "== --backend rejects unknown backends =="
if "$TOOLS/corun-profile" --batch batch.csv --out bad.csv \
    --backend warp 2>/dev/null; then
  echo "expected usage error for bad --backend" >&2
  exit 1
fi

echo "== --engine is gone: a usage error, not silently ignored =="
rc=0
"$TOOLS/corun-profile" --batch batch.csv --out engine.csv \
    --engine tick 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ] || [ -e engine.csv ]; then
  echo "expected usage error (exit 2) for --engine, got exit $rc" >&2
  exit 1
fi

echo "== corun-schedule (hcs+, save plan, explain) =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler hcs --explain \
    --save-plan plan.csv | tee schedule.out
test -s plan.csv
grep -q "decision trace" schedule.out
grep -q "lower bound" schedule.out

echo "== --explain prints the same decision trace with a plan cache =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler hcs --explain > explain.out
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler hcs --explain --plan-cache mem \
    > explain_cached.out 2>/dev/null
grep -q "decision trace" explain.out
cmp explain.out explain_cached.out

echo "== corun-schedule rejects bad input =="
if "$TOOLS/corun-schedule" --batch batch.csv --grid grid.csv 2>/dev/null; then
  echo "expected usage error for missing --profiles" >&2
  exit 1
fi

echo "== corun-run (plan file, gantt, power trace) =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --plan plan.csv --gantt --power-trace trace.csv | tee run.out
test -s trace.csv
grep -q "makespan=" run.out
grep -q "utilization" run.out
grep -q "plan file" run.out

echo "== corun-run (online profiles, bnb scheduler) =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles_online.csv \
    --grid grid.csv --cap 15 --scheduler bnb | grep -q "scheduler: BnB"

echo "== corun-schedule --trace writes a structured trace =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb --trace trace1.json \
    > /dev/null 2> trace1.err
test -s trace1.json
grep -q "traceEvents" trace1.json
grep -q "corunMetrics" trace1.json
grep -q "bnb.nodes" trace1.json
grep -q "trace: " trace1.err

echo "== CORUN_TRACE env var is honoured =="
CORUN_TRACE=trace_env.json "$TOOLS/corun-schedule" --batch batch.csv \
    --profiles profiles.csv --grid grid.csv --cap 15 --scheduler bnb \
    > /dev/null 2>&1
test -s trace_env.json

# Strip wall-clock timestamps/durations; everything else (event names,
# order, counter values, lane ids) must be deterministic.
normalize_trace() {
  sed -E 's/"ts": [0-9]+(\.[0-9]+)?/"ts": 0/g; s/"dur": [0-9]+(\.[0-9]+)?/"dur": 0/g' \
      "$1" > "$1.norm"
}

echo "== --trace output is stable across --jobs 1 vs --jobs 4 =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler hcs --jobs 1 --trace trace_j1.json \
    > /dev/null 2>&1
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler hcs --jobs 4 --trace trace_j4.json \
    > /dev/null 2>&1
normalize_trace trace_j1.json
normalize_trace trace_j4.json
cmp trace_j1.json.norm trace_j4.json.norm

echo "== corun-run --events (random spec, dynamic mode) =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events "random:arrivals=1,cancels=1,caps=1,horizon=40,seed=7,programs=lud" \
    --power-trace dyn_trace.csv | tee dyn.out
test -s dyn_trace.csv
grep -q "dynamic, reschedule on" dyn.out
grep -q "events:" dyn.out
grep -q "makespan=" dyn.out
grep -q "replans:" dyn.out

echo "== corun-run --events (CSV plan round trip) =="
cat > faults.csv <<EOF
time,kind,program,input_scale,seed,target,cap,factor,duration
5,cap,-,-,0,-,12,-,-
10,arrival,lud,0.8,77,-,-,-,-
EOF
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events faults.csv | grep -q "events:    2 planned"

# The "wrote power trace to <file>" line echoes the output filename, which
# necessarily differs between the paired runs; drop it before comparing.
strip_trace_path() { grep -v "wrote power trace" "$1" > "$1.cmp"; }

echo "== dynamic run is byte-identical across --jobs 1 vs --jobs 4 =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events faults.csv --jobs 1 --power-trace dyn_j1.csv > dyn_j1.out
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events faults.csv --jobs 4 --power-trace dyn_j4.csv > dyn_j4.out
strip_trace_path dyn_j1.out
strip_trace_path dyn_j4.out
cmp dyn_j1.out.cmp dyn_j4.out.cmp
cmp dyn_j1.csv dyn_j4.csv

echo "== dynamic run is byte-identical across --backend tick vs event =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events faults.csv --backend tick --power-trace dyn_tick.csv \
    > dyn_tick.out
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --events faults.csv --backend event --power-trace dyn_event.csv \
    > dyn_event.out
strip_trace_path dyn_tick.out
strip_trace_path dyn_event.out
cmp dyn_tick.out.cmp dyn_event.out.cmp
cmp dyn_tick.csv dyn_event.csv

echo "== --record-trace rejects a replay backend =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --record-trace rec.csv > rec.out 2>/dev/null
test -s rec.csv
rc=0
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --backend replay:rec.csv --record-trace again.csv \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ] || [ -e again.csv ]; then
  echo "expected usage error (exit 2) for --record-trace with a replay" \
    "backend, got exit $rc" >&2
  exit 1
fi

echo "== --events rejects --plan and bad --reschedule =="
if "$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --events faults.csv --plan plan.csv 2>/dev/null; then
  echo "expected usage error for --events with --plan" >&2
  exit 1
fi
if "$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --events faults.csv --reschedule maybe 2>/dev/null; then
  echo "expected usage error for bad --reschedule" >&2
  exit 1
fi

echo "== --plan-cache never changes stdout (static, jobs 1 vs 4) =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb > plain.out
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb --plan-cache mem --jobs 1 \
    > cached_j1.out 2>/dev/null
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb --plan-cache mem --jobs 4 \
    > cached_j4.out 2>/dev/null
cmp plain.out cached_j1.out
cmp plain.out cached_j4.out

echo "== --plan-cache dir: second run hits the persistent tier =="
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb --plan-cache dir:plancache \
    > pc1.out 2> pc1.err
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler bnb --plan-cache dir:plancache \
    > pc2.out 2> pc2.err
cmp pc1.out pc2.out
cmp plain.out pc1.out
ls plancache/plan_*.csv > /dev/null
grep -q "plan-cache: hits=0 misses=1" pc1.err
grep -q "plan-cache: hits=1 misses=0" pc2.err
grep -q "disk_hits=1" pc2.err

echo "== CORUN_PLAN_CACHE env var is honoured =="
CORUN_PLAN_CACHE=dir:plancache "$TOOLS/corun-schedule" --batch batch.csv \
    --profiles profiles.csv --grid grid.csv --cap 15 --scheduler bnb \
    > pc_env.out 2> pc_env.err
cmp plain.out pc_env.out
grep -q "plan-cache: hits=1" pc_env.err

echo "== dynamic run with --plan-cache is byte-identical =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --scheduler bnb --events faults.csv > dyn_nocache.out
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --scheduler bnb --events faults.csv --plan-cache mem \
    > dyn_cache.out 2> dyn_cache.err
cmp dyn_nocache.out dyn_cache.out
grep -q "plan-cache:" dyn_cache.err

echo "== bnb dynamic rerun is byte-identical =="
"$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv --grid grid.csv \
    --cap 15 --scheduler bnb --events faults.csv > dyn_rerun.out
cmp dyn_nocache.out dyn_rerun.out

echo "== random plan, rescheduling off: an arrival still runs =="
# The arrival must join the shared queue the Random plan pulls from; a
# regression spins forever, so the run is bounded.
cat > arrival.csv <<EOF
time,kind,program,input_scale,seed,target,cap,factor,duration
5,arrival,lud,0.8,77,-,-,-,-
EOF
BOUND=""
if command -v timeout > /dev/null 2>&1; then BOUND="timeout 120"; fi
$BOUND "$TOOLS/corun-run" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --cap 15 --scheduler random --events arrival.csv \
    --reschedule off > dyn_random_off.out
grep -q "lud#d1" dyn_random_off.out
grep -q "jobs=5" dyn_random_off.out

echo "== --plan-cache rejects malformed specs =="
if "$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --plan-cache ram 2>/dev/null; then
  echo "expected usage error for bad --plan-cache" >&2
  exit 1
fi
# A shard count (mem:N:S) is not a spec form: a usage error, exit 2.
rc=0
"$TOOLS/corun-schedule" --batch batch.csv --profiles profiles.csv \
    --grid grid.csv --plan-cache mem:4:2 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 for --plan-cache mem:4:2, got $rc" >&2
  exit 1
fi

echo "== --trace output is valid JSON =="
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool trace1.json > /dev/null
  python3 -m json.tool trace_j4.json > /dev/null
else
  echo "python3 not found; skipping strict JSON validation"
fi

echo "CLI pipeline OK"
