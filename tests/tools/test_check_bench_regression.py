#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_regression.py.

The guard is the only thing standing between a silently-disabled fast path
and a green CI run, so its own behaviour is pinned here: rate extraction
(the `_per_wall` suffix contract, nesting, scenario labels), the pass /
regression / missing-key verdicts, the exact `_work` count contract, and
the exit codes CI keys off.

Run directly (python3 tests/tools/test_check_bench_regression.py) or via
ctest as `bench_regression_script`.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "scripts",
                      "check_bench_regression.py")

spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)


def run_guard(baseline, new_files, factor=None):
    """Runs guard.main() against temp JSON files; returns (exit, out, err)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate([baseline] + list(new_files)):
            path = os.path.join(tmp, f"doc{i}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        argv = [SCRIPT] + paths
        if factor is not None:
            argv += ["--factor", str(factor)]
        out, err = io.StringIO(), io.StringIO()
        old_argv, sys.argv = sys.argv, argv
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = guard.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue(), err.getvalue()


class RatesTest(unittest.TestCase):
    def test_matches_every_per_wall_suffix(self):
        doc = {"tick_sim_per_wall": 10.0, "hit_plans_per_wall": 5,
               "event_speedup": 99.0, "warm_bnb_nodes": 1486}
        self.assertEqual(guard.rates(doc),
                         {"tick_sim_per_wall": 10.0,
                          "hit_plans_per_wall": 5.0})

    def test_nested_scenarios_use_scenario_label(self):
        doc = {"scenarios": [{"scenario": "capped", "tick_sim_per_wall": 7.0},
                             {"tick_sim_per_wall": 3.0}]}
        self.assertEqual(guard.rates(doc),
                         {"scenarios[capped].tick_sim_per_wall": 7.0,
                          "scenarios[1].tick_sim_per_wall": 3.0})

    def test_non_numeric_rates_are_ignored(self):
        self.assertEqual(guard.rates({"x_per_wall": "fast"}), {})


class VerdictTest(unittest.TestCase):
    BASE = {"cold_plans_per_wall": 100.0, "hit_plans_per_wall": 1000.0}

    def test_within_factor_passes(self):
        code, out, _ = run_guard(
            self.BASE,
            [{"cold_plans_per_wall": 60.0, "hit_plans_per_wall": 900.0}])
        self.assertEqual(code, 0)
        self.assertIn("all 2 best-of-1 rates within", out)

    def test_regression_beyond_factor_fails(self):
        code, _, err = run_guard(
            self.BASE,
            [{"cold_plans_per_wall": 30.0, "hit_plans_per_wall": 900.0}])
        self.assertEqual(code, 1)
        self.assertIn("cold_plans_per_wall", err)

    def test_missing_baseline_key_fails_with_explicit_message(self):
        code, out, err = run_guard(self.BASE,
                                   [{"cold_plans_per_wall": 100.0}])
        self.assertEqual(code, 1)
        self.assertIn("hit_plans_per_wall", err)
        self.assertIn("missing from new results", err)
        self.assertIn("did not run or renamed the key", err)
        self.assertIn("no matching rate in any of the 1 new result file(s)",
                      out)

    def test_best_of_multiple_new_files_wins(self):
        code, _, _ = run_guard(
            self.BASE,
            [{"cold_plans_per_wall": 10.0, "hit_plans_per_wall": 10.0},
             {"cold_plans_per_wall": 95.0, "hit_plans_per_wall": 990.0}])
        self.assertEqual(code, 0)

    def test_pass_path_reports_best_of_n(self):
        code, out, _ = run_guard(
            self.BASE,
            [{"cold_plans_per_wall": 60.0, "hit_plans_per_wall": 900.0},
             {"cold_plans_per_wall": 80.0, "hit_plans_per_wall": 700.0},
             {"cold_plans_per_wall": 55.0, "hit_plans_per_wall": 950.0}])
        self.assertEqual(code, 0)
        # Per-rate verdicts and the closing summary both carry the label,
        # with the best value across the three runs next to it.
        self.assertIn("best-of-3 80.0", out)
        self.assertIn("best-of-3 950.0", out)
        self.assertIn("all 2 best-of-3 rates within", out)

    def test_fail_path_reports_best_of_n(self):
        code, out, err = run_guard(
            self.BASE,
            [{"cold_plans_per_wall": 10.0, "hit_plans_per_wall": 900.0},
             {"cold_plans_per_wall": 30.0, "hit_plans_per_wall": 950.0}])
        self.assertEqual(code, 1)
        self.assertIn("best-of-2 30.0", out)
        self.assertIn("best-of-2 30.0", err)

    def test_missing_key_names_the_run_count(self):
        code, out, _ = run_guard(self.BASE,
                                 [{"cold_plans_per_wall": 100.0},
                                  {"cold_plans_per_wall": 90.0}])
        self.assertEqual(code, 1)
        self.assertIn("any of the 2 new result file(s)", out)

    def test_custom_factor_is_honoured(self):
        new = [{"cold_plans_per_wall": 30.0, "hit_plans_per_wall": 300.0}]
        self.assertEqual(run_guard(self.BASE, new)[0], 1)
        self.assertEqual(run_guard(self.BASE, new, factor=4.0)[0], 0)

    def test_baseline_with_only_work_counts_is_judged(self):
        base = {"scenarios": [{"scenario": "u", "horizons_work": 7}]}
        self.assertEqual(run_guard(base, [base])[0], 0)

    def test_baseline_without_rates_exits_2(self):
        code, out, _ = run_guard({"event_speedup": 10.5},
                                 [{"cold_plans_per_wall": 1.0}])
        self.assertEqual(code, 2)
        self.assertIn("no *_per_wall rates", out)


class WorkCountTest(unittest.TestCase):
    """`*_work` keys are deterministic counts, compared exactly."""

    BASE = {"x_per_wall": 100.0,
            "scenarios": [{"scenario": "uncapped", "horizons_work": 1200,
                           "replayed_ticks_work": 45000,
                           "speedup": 11.0}]}

    def new_doc(self, horizons=1200, ticks=45000, rate=100.0):
        return {"x_per_wall": rate,
                "scenarios": [{"scenario": "uncapped",
                               "horizons_work": horizons,
                               "replayed_ticks_work": ticks,
                               "speedup": 3.0}]}

    def test_extracts_work_keys_only(self):
        self.assertEqual(guard.work_counts(self.BASE),
                         {"scenarios[uncapped].horizons_work": 1200.0,
                          "scenarios[uncapped].replayed_ticks_work": 45000.0})

    def test_equal_counts_pass(self):
        code, out, _ = run_guard(self.BASE, [self.new_doc(), self.new_doc()])
        self.assertEqual(code, 0)
        self.assertIn("all 2 work counts equal the baseline exactly", out)

    def test_any_change_fails_even_within_the_rate_factor(self):
        # One extra horizon is a changed count: no factor applies, and a
        # faster run elsewhere does not excuse it.
        code, out, err = run_guard(
            self.BASE, [self.new_doc(), self.new_doc(horizons=1201)])
        self.assertEqual(code, 1)
        self.assertIn("scenarios[uncapped].horizons_work: baseline 1200, "
                      "got 1201", out)
        self.assertIn("compared exactly", err)

    def test_fewer_replayed_ticks_fails(self):
        code, _, err = run_guard(self.BASE, [self.new_doc(ticks=44999)])
        self.assertEqual(code, 1)
        self.assertIn("replayed_ticks_work", err)

    def test_missing_work_key_fails(self):
        new = {"x_per_wall": 100.0,
               "scenarios": [{"scenario": "uncapped", "horizons_work": 1200}]}
        code, out, err = run_guard(self.BASE, [new])
        self.assertEqual(code, 1)
        self.assertIn("missing from 1 of the 1 new result file(s)", out)
        self.assertIn("replayed_ticks_work", err)


if __name__ == "__main__":
    unittest.main()
