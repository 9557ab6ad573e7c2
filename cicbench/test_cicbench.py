#!/usr/bin/env python3
"""Self-tests for the benchmark's own code.

    python3 cicbench/test_cicbench.py

The last test builds the benchmark (if needed) and runs one short workload
against a doctored reference, which must fail the run.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402
import run  # noqa: E402


class Helpers(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchstats.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchstats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchstats.spread([2.0, 2.0, 2.0]), 0.0)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 90), 90)
        self.assertEqual(benchstats.percentile(values, 99), 99)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7, 3], 1), 3)
        self.assertEqual(benchstats.percentile(list(reversed(values)), 10), 10)
        with self.assertRaises(ValueError):
            benchstats.percentile(values, 0)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_fastest_is_the_median_of_the_smallest(self):
        self.assertEqual(benchstats.fastest(list(range(100, 0, -1))), 4.5)  # 1..8
        self.assertEqual(benchstats.fastest([9, 8, 7]), 8)
        self.assertEqual(benchstats.fastest([5, 1, 9, 3], keep=2), 2)

    def test_metric_name_validator(self):
        for good in ("wall_s", "cic.lookup_ns.8", "cpu.mips.cic16", "9lives", "a-b_c.d"):
            self.assertTrue(benchstats.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "-x", "a b", "a/b", "métrique", "x" * 65, None, 3):
            self.assertFalse(benchstats.valid_metric_name(bad), bad)
        for name in (*run.END_TO_END, *run.PER_LAYER):
            self.assertTrue(benchstats.valid_metric_name(name), name)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_compare_reference(self):
        expected = {"summary": {"benign": 0, "hang": 0}, "golden_instructions": 52306}
        self.assertEqual(benchstats.compare_reference(expected, json.loads(json.dumps(expected))), [])
        doctored = {"summary": {"benign": 1, "hang": 0}, "golden_instructions": 52306}
        self.assertEqual(benchstats.compare_reference(doctored, expected),
                         ["summary.benign: expected 1, got 0"])
        self.assertEqual(benchstats.compare_reference({"x": 1}, {}), ["x: missing"])

    def test_parse_campaign_stdout(self):
        text = ("workload dijkstra (scale 1.00): 52306 golden instructions\n"
                "| outcome           | count |\n|-------------------|-------|\n"
                "| detected-mismatch | 1731  |\n| benign            | 0     |\n")
        self.assertEqual(run.parse_campaign_stdout(text),
                         {"summary": {"detected_mismatch": 1731, "benign": 0},
                          "golden_instructions": 52306})


class DoctoredReference(unittest.TestCase):
    def test_doctored_reference_fails_the_run(self):
        references = json.loads(run.REFERENCES.read_text())
        references["campaign-bus"]["expect"]["summary"]["detected_mismatch"] += 1
        run.OUT.mkdir(exist_ok=True)
        doctored = run.OUT / "doctored-references.json"
        doctored.write_text(json.dumps(references))
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "campaign-bus",
             "--seed", str(run.DEFAULT_SEED["campaign-bus"]), "--seconds", "1",
             "--references", str(doctored)],
            capture_output=True, text=True, timeout=900)
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("reference: summary.detected_mismatch", proc.stderr)


if __name__ == "__main__":
    unittest.main()
