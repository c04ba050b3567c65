#!/usr/bin/env bash
# Doc drift guard for the trace-counter families.
#
# Each family is checked against a list of docs: bnb.* (the
# branch-and-bound solver) against docs/search.md, docs/observability.md
# and docs/performance.md; plan_cache.* (the plan cache) against
# docs/observability.md and docs/performance.md; backend.* (the
# machine-model layer) against docs/architecture.md; thermal.* (the
# engine) against docs/thermal.md. Counter names are plain strings on both
# sides, so nothing stops them drifting apart silently — this check does.
# It extracts the emitted names from the CORUN_TRACE_* / counter_add call
# sites and the documented names from the docs and fails on any one-sided
# mention, in either direction: a name that is emitted but none of the
# family's docs mention, or a name any of them still mentions after its
# source is gone.
#
# Usage: scripts/check_search_doc_counters.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# check_family PREFIX "DOC..." SRC...
check_family() {
  local prefix=$1
  local -a docs
  read -r -a docs <<<"$2"
  shift 2
  local emitted documented name
  emitted=$(grep -oh "\"${prefix}\.[a-z_][a-z_]*\"" "$@" | tr -d '"' | sort -u)
  # A file name such as plan_cache.cpp or BENCH_plan_cache.json is not a
  # metric name: require a word boundary before the prefix and drop
  # file-extension suffixes.
  documented=$(grep -ohE "\\b${prefix}\.[a-z_]+" "${docs[@]}" |
    grep -vE '\.(cpp|hpp|json|md|sh|csv|py)$' | sort -u || true)
  while IFS= read -r name; do
    [ -n "$name" ] || continue
    if ! grep -qx "$name" <<<"$documented"; then
      echo "UNDOCUMENTED: '$name' is emitted but ${docs[*]} never mention it" >&2
      status=1
    fi
  done <<<"$emitted"
  while IFS= read -r name; do
    [ -n "$name" ] || continue
    if ! grep -qx "$name" <<<"$emitted"; then
      echo "STALE: $(grep -lF "$name" "${docs[@]}" | tr '\n' ' ')mentions '$name' but no source emits it" >&2
      status=1
    fi
  done <<<"$documented"
  if [ "$status" -eq 0 ]; then
    echo "$prefix.* doc counters in sync ($(wc -w <<<"$emitted" | tr -d ' ') names)"
  fi
}

check_family bnb "docs/search.md docs/observability.md docs/performance.md" \
  src/corun/core/sched/branch_and_bound.cpp
check_family plan_cache "docs/observability.md docs/performance.md" \
  src/corun/core/sched/plan_cache/plan_cache.cpp \
  src/corun/core/sched/plan_cache/caching_scheduler.cpp
check_family backend docs/architecture.md \
  src/corun/sim/backend.cpp \
  src/corun/sim/engine.cpp \
  src/corun/core/model/corun_predictor.cpp
check_family thermal docs/thermal.md src/corun/sim/engine.cpp

exit "$status"
