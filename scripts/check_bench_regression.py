#!/usr/bin/env python3
"""Bench regression guard for CI.

Compares a freshly produced bench JSON against the checked-in baseline and
fails (exit 1) when any throughput rate regressed by more than the allowed
factor, or any deterministic work count changed at all. Two key classes
gate CI; everything else (speedup ratios, derived or environment-sensitive
counts) is ignored:

- keys ending in `_per_wall` are work-per-wall-second rates (simulated
  seconds, plans, ...), higher is better, judged against the factor below;
- keys ending in `_work` are deterministic work counts (event horizons,
  replayed ticks, ...) that no timing or libm rounding can move. They must
  equal the baseline exactly in every new run: a disabled fast path shows
  up there as a changed count long before the noisy 2x wall guard sees it.

A baseline rate that is absent from the new results is a hard failure in
its own right: it means the bench that produces it no longer runs or was
renamed, which is exactly the silent decay the guard exists to catch.

The default threshold is deliberately loose (2x): CI runners are noisy
shared machines, and the guard exists to catch order-of-magnitude
regressions (an accidentally disabled fast path, a quadratic loop), not to
police single-digit-percent drift.

Accepts several NEW files and scores each rate by its best run: a slow run
proves nothing on a shared machine, but one fast run proves the fast path
still exists. Both the pass and the fail paths label the scored rate
"best-of-N" so a CI log never reads as if a single run was judged.

Usage: check_bench_regression.py BASELINE.json NEW.json [NEW2.json ...]
       [--factor 2.0]
"""

import argparse
import json
import sys


def collect(node, suffix, prefix=""):
    """Flattens every numeric key ending in `suffix` to a {path: value}
    dict; list entries are labelled by their scenario or bench name."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if key.endswith(suffix) and isinstance(value, (int, float)):
                out[path] = float(value)
            else:
                out.update(collect(value, suffix, path))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            label = i
            if isinstance(value, dict):
                label = value.get("scenario", value.get("bench", i))
            out.update(collect(value, suffix, f"{prefix}[{label}]"))
    return out


def rates(node):
    """Every *_per_wall rate key as a {path: value} dict."""
    return collect(node, "_per_wall")


def work_counts(node):
    """Every *_work count key as a {path: value} dict."""
    return collect(node, "_work")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new", nargs="+")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="maximum allowed slowdown (new >= baseline/factor)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        doc = json.load(f)
    base = rates(doc)
    base_work = work_counts(doc)
    new = {}
    new_work = []
    for path in args.new:
        with open(path) as f:
            doc = json.load(f)
        for key, rate in rates(doc).items():
            new[key] = max(new.get(key, rate), rate)
        new_work.append(work_counts(doc))

    if not base and not base_work:
        print(f"error: no *_per_wall rates or *_work counts in "
              f"{args.baseline}")
        return 2

    # Every verdict line reports the same quantity with the same label: the
    # best rate across the N new runs.
    best_of = f"best-of-{len(args.new)}"

    failures = []
    for path, base_rate in sorted(base.items()):
        new_rate = new.get(path)
        if new_rate is None:
            print(f"FAIL {path}: baseline {base_rate:.1f}, "
                  f"no matching rate in any of the {len(args.new)} new "
                  f"result file(s)")
            failures.append(
                f"{path}: baseline rate missing from new results — the "
                f"bench that produces it did not run or renamed the key")
            continue
        floor = base_rate / args.factor
        verdict = "FAIL" if new_rate < floor else "ok"
        print(f"{verdict:4} {path}: baseline {base_rate:.1f}, "
              f"{best_of} {new_rate:.1f} (floor {floor:.1f})")
        if new_rate < floor:
            failures.append(
                f"{path}: {best_of} {new_rate:.1f} < {floor:.1f} "
                f"(baseline {base_rate:.1f} / {args.factor}x)")

    # Work counts are exact: every run must reproduce the baseline.
    for path, expected in sorted(base_work.items()):
        missing = sum(1 for counts in new_work if path not in counts)
        changed = sorted({counts[path] for counts in new_work
                          if path in counts and counts[path] != expected})
        if missing:
            print(f"FAIL {path}: baseline {expected:g}, missing from "
                  f"{missing} of the {len(args.new)} new result file(s)")
            failures.append(
                f"{path}: work count missing from new results — the bench "
                f"that produces it did not run or renamed the key")
        elif changed:
            got = ", ".join(f"{v:g}" for v in changed)
            print(f"FAIL {path}: baseline {expected:g}, got {got}")
            failures.append(
                f"{path}: work count {got} != baseline {expected:g} "
                f"(compared exactly)")
        else:
            print(f"ok   {path}: {expected:g} in all {len(args.new)} run(s)")

    if failures:
        print(f"\n{len(failures)} bench regression(s) (rates beyond "
              f"{args.factor}x, work counts exact):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if base:
        print(f"\nall {len(base)} {best_of} rates within {args.factor}x "
              f"of baseline")
    if base_work:
        print(f"all {len(base_work)} work counts equal the baseline exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
