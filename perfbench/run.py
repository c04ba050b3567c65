#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_pipeline --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds `perfbench` (a CMake project that links
the checkout's corun libraries) under $CARGO_TARGET_DIR, or `.bench_build`
when that is unset; later runs only rebuild what changed. Build output goes
to stderr. The benchmark's report goes to stdout, and its last line is the
JSON result object. `--workload all` runs every workload in turn, and
`--selftest` runs the tests of the benchmark's own measurement code.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline_pipeline", "plan_serving", "fleet_dynamic")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out_dir):
    """Configure (once) and build; returns False when either step fails."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench",
           "perfbench_selftest", "-j", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_workload(out_dir, args, workload):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, "trace-%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s ran past %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        print("error: %s printed no result line" % workload, file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, (lines, result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run(
            [os.path.join(out_dir, "perfbench_selftest")]).returncode

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        rc, outcome = run_workload(out_dir, args, workload)
        if outcome is None:
            return rc or 1
        lines, result = outcome
        code = code or rc
        if len(workloads) == 1:
            print("\n".join(lines))
            return rc
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
