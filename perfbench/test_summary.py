#!/usr/bin/env python3
"""Self-tests for the benchmark's summary code and its BENCHMARK.json.

    python3 perfbench/test_summary.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import summary  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(summary.samples_beyond(950, 200), 10)
        self.assertEqual(summary.samples_beyond(950, 199), 9)
        self.assertEqual(summary.samples_beyond(500, 20), 10)
        self.assertEqual(summary.samples_beyond(999, 10000), 10)

    def test_highest_supported_percentile(self):
        cases = {0: None, 19: None, 20: 500, 99: 500, 100: 900, 199: 900,
                 200: 950, 999: 950, 1000: 990, 9999: 990, 10000: 999}
        for n, want in cases.items():
            self.assertEqual(summary.highest_supported_percentile(n), want, n)

    def test_percentile_values(self):
        values = list(range(1, 201))  # 1..200, shuffled order must not matter
        values.reverse()
        self.assertEqual(summary.percentile(values, 500), 100)
        self.assertEqual(summary.percentile(values, 950), 190)
        self.assertEqual(summary.percentile([7.0], 999), 7.0)
        with self.assertRaises(ValueError):
            summary.percentile([], 500)

    def test_replica_latency_requires_p95_support(self):
        checks = summary.Checks()
        out = summary.replica_latency([1.0] * 199, checks)
        self.assertEqual(checks.failed, 1)
        self.assertEqual(out["campaign.replica_samples"], 199)
        checks = summary.Checks()
        out = summary.replica_latency([float(i) for i in range(200)], checks)
        self.assertEqual((checks.attempted, checks.failed), (1, 0))
        self.assertEqual(out["campaign.replica_p95_ms"], 189.0)
        checks = summary.Checks()
        out = summary.replica_latency([], checks)
        self.assertEqual(checks.attempted, 0)
        self.assertEqual(out["campaign.replica_p95_ms"], 0.0)


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ("wall_s", "core.ns_per_flip", "a", "9lives",
                     "x-y.z_0", "a" * 64):
            self.assertTrue(summary.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "-lead", "has space", "a/b",
                     "a" * 65, "café", None, 3):
            self.assertFalse(summary.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "count", "%", "flips/sweep"):
            self.assertTrue(summary.valid_unit(unit), unit)
        for unit in ("", "a b", "x" * 17):
            self.assertFalse(summary.valid_unit(unit), unit)


class FailFrac(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(summary.fail_frac(10, 0), 0.0)
        self.assertEqual(summary.fail_frac(10, 3), 0.3)
        self.assertEqual(summary.fail_frac(1, 1), 1.0)

    def test_rejects_bad_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1), (5.0, 1),
                                  (True, 0), (5, None)):
            with self.assertRaises(ValueError, msg=(attempted, failed)):
                summary.fail_frac(attempted, failed)

    def test_checks_accumulate(self):
        checks = summary.Checks(attempted=4, failed=1, failures=["a"])
        self.assertTrue(checks.expect(True, "b"))
        self.assertFalse(checks.expect(False, "c"))
        self.assertEqual((checks.attempted, checks.failed), (6, 2))
        self.assertEqual(checks.failures, ["a", "c"])
        self.assertAlmostEqual(checks.frac, 2 / 6)


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def raw_run(**overrides):
    raw = {"attempted": 5, "failed": 0, "failures": [],
           "setup_s": [2e-6, 1e-6, 3e-6], "wall_s": [0.5, 0.4, 0.6],
           "serial_wall_s": [], "replicas_per_s": [400.0, 500.0],
           "flips_per_s": [1e6], "peak_rss_mb": 12.5, "layers": [],
           "replica_ms": []}
    raw.update(overrides)
    return raw


class Summarize(unittest.TestCase):
    def test_end_to_end_medians(self):
        line, checks = summary.summarize(raw_run(), load_bench(), False)
        self.assertTrue(line["correct"])
        m = line["metrics"]
        self.assertEqual(m["wall_s"], {"value": 0.5, "unit": "s"})
        self.assertEqual(m["setup_s"]["value"], 2e-6)
        self.assertEqual(m["replicas_per_s"]["value"], 450.0)
        self.assertEqual(m["peak_rss_mb"]["value"], 12.5)
        names = [e["name"] for e in load_bench()["end_to_end"]]
        self.assertEqual(sorted(m), sorted(names))
        self.assertEqual(line["attempted"], checks.attempted)

    def test_program_failures_are_counted(self):
        line, _ = summary.summarize(raw_run(attempted=5, failed=2),
                                    load_bench(), False)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)

    def test_zero_timing_fails(self):
        line, checks = summary.summarize(raw_run(wall_s=[0.0, 0.1, 0.2]),
                                         load_bench(), False)
        self.assertFalse(line["correct"])
        self.assertIn("wall_s samples positive and finite", checks.failures)

    def test_missing_metric_fails(self):
        bench = load_bench()
        bench["end_to_end"] = bench["end_to_end"] + [
            {"name": "not_produced", "unit": "s", "better": "lower",
             "bound": 0.1}]
        line, _ = summary.summarize(raw_run(), bench, False)
        self.assertFalse(line["correct"])
        self.assertNotIn("not_produced", line["metrics"])

    def test_invalid_unit_fails(self):
        bench = load_bench()
        bench["end_to_end"][0] = dict(bench["end_to_end"][0], unit="per sec")
        line, _ = summary.summarize(raw_run(), bench, False)
        self.assertFalse(line["correct"])

    def test_per_layer_medians_and_fail_frac(self):
        bench = load_bench()
        layer_names = [e["name"] for e in bench["per_layer"]
                       if not e["name"].startswith(("campaign.replica_",
                                                    "check.", "baseline."))]
        layers = [{n: float(i) for n in layer_names} for i in (1, 5, 2)]
        raw = raw_run(attempted=7, failed=0, layers=layers,
                      serial_wall_s=[3.0],
                      replica_ms=[float(i) for i in range(300)])
        line, checks = summary.summarize(raw, bench, True)
        self.assertTrue(line["correct"], checks.failures)
        m = line["metrics"]
        self.assertEqual(m["core.dynamics_s"]["value"], 2.0)
        self.assertEqual(m["baseline.serial_wall_s"]["value"], 3.0)
        self.assertEqual(m["campaign.replica_samples"]["value"], 300)
        self.assertEqual(m["check.fail_frac"]["value"], 0.0)
        self.assertEqual(sorted(m), sorted(e["name"]
                                           for e in bench["per_layer"]))

    def test_per_layer_fail_frac_counts_summary_checks(self):
        bench = load_bench()
        raw = raw_run(attempted=9, failed=1, layers=[{}],
                      replica_ms=[1.0] * 50)
        line, checks = summary.summarize(raw, bench, True)
        self.assertFalse(line["correct"])
        # The program's miss, the unsupported p95, and every layer metric
        # missing from the (empty) traced repetition.
        self.assertGreater(line["failed"], 2)
        self.assertEqual(line["metrics"]["check.fail_frac"]["value"],
                         line["failed"] / line["attempted"])


class BenchmarkFile(unittest.TestCase):
    def test_schema(self):
        bench = load_bench()
        self.assertEqual(sorted(bench), ["command", "end_to_end", "paths",
                                         "per_layer", "run_seconds",
                                         "workloads"])
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = []
        for w in bench["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        bounds = {}
        for e in bench["end_to_end"]:
            self.assertEqual(sorted(e), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < e["bound"] <= 0.25)
            bounds[e["name"]] = e["bound"]
            names.append(e["name"])
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for e in bench["per_layer"]:
            self.assertEqual(sorted(e), ["better", "name", "unit"])
            names.append(e["name"])
        for e in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(summary.valid_unit(e["unit"]), e)
            self.assertIn(e["better"], ("higher", "lower"))
        for name in names:
            self.assertTrue(summary.valid_name(name), name)
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
