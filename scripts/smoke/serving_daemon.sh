#!/usr/bin/env bash
# Serving daemon smoke test: start corun-served on a Unix socket, fire a
# pipelined request trace at it with corun-replay, and require the response
# bodies byte-identical to fresh one-shot corun-schedule runs — then a
# clean SIGTERM shutdown (exit 0 with session counters).
set -euo pipefail
# shellcheck source=scripts/smoke/common.sh
source "$(dirname "$0")/common.sh"
smoke_init serving_daemon "$@"
ensure_pipeline_fixtures

printf 'seq,cap,scheduler,policy,seed,jobs\n' > "$WORK/requests.csv"
printf '0,15,bnb,gpu,42,\n1,,hcs+,gpu,42,\n2,15,bnb,gpu,42,\n3,12,hcs,cpu,42,lud\n' \
  >> "$WORK/requests.csv"
rm -f "$WORK/serve.sock"
"$TOOLS/corun-served" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --socket "$WORK/serve.sock" 2> "$WORK/served.err" &
SERVED=$!
# Stop the daemon however this script exits: a failing step under set -e
# would otherwise leave it running, holding the caller's output pipe open.
trap 'kill "$SERVED" 2> /dev/null || true' EXIT
# bind() creates the socket file before listen(), so the file existing does
# not mean the daemon accepts connections; its "listening on" line is
# printed only after listen() returned.
for _ in $(seq 1 300); do
  grep -q "listening on" "$WORK/served.err" && break
  kill -0 "$SERVED" 2> /dev/null || break
  sleep 0.1
done
if ! grep -q "listening on" "$WORK/served.err"; then
  echo "error: corun-served did not start listening" >&2
  cat "$WORK/served.err" >&2
  exit 1
fi
"$TOOLS/corun-replay" --requests "$WORK/requests.csv" --socket "$WORK/serve.sock" \
  --output "$WORK/replay.out"
"$TOOLS/corun-replay" --requests "$WORK/requests.csv" --socket "$WORK/serve.sock" \
  --repeat 2 --window 1 --output "$WORK/replay2.out"

: > "$WORK/expect.out"
"$TOOLS/corun-schedule" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --cap 15 --scheduler bnb >> "$WORK/expect.out"
"$TOOLS/corun-schedule" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --scheduler hcs+ >> "$WORK/expect.out"
"$TOOLS/corun-schedule" --batch "$WORK/batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --cap 15 --scheduler bnb >> "$WORK/expect.out"
printf 'instance,program,input_scale,seed\nlud,lud,0.9,44\n' > "$WORK/sub_batch.csv"
"$TOOLS/corun-schedule" --batch "$WORK/sub_batch.csv" --profiles "$WORK/profiles.csv" \
  --grid "$WORK/grid.csv" --cap 12 --scheduler hcs --policy cpu >> "$WORK/expect.out"
cmp "$WORK/replay.out" "$WORK/expect.out"
cmp "$WORK/replay2.out" "$WORK/expect.out"

kill -TERM "$SERVED"
wait "$SERVED"
grep -q "received=12 ok=12 busy=0 errors=0" "$WORK/served.err"
grep -q "plan-cache:" "$WORK/served.err"
echo "serving daemon smoke OK"
