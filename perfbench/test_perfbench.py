"""Checks that every metric the benchmark prints is valid and listed in
BENCHMARK.json.  Run through `python3 perfbench/run.py --selftest` (which
builds the driver first) or, after a build, `python3 -m unittest
test_perfbench` from this directory."""

import json
import os
import subprocess
import unittest

import run


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names_and_units_are_valid_and_unique(self):
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in self.spec[group]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        for group in ("end_to_end", "per_layer"):
            for metric in self.spec[group]:
                self.assertRegex(metric["unit"], run.UNIT_RE)
                self.assertIn(metric["better"], ("lower", "higher"))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(self.spec["end_to_end"][0]["unit"], "s")
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_driver_prints_exactly_the_listed_metrics(self):
        listing = subprocess.run(
            [os.path.join(run.BUILD, "perfbench"), "--list-metrics"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in listing.splitlines():
            group, name, unit = line.split()
            printed[group][name] = unit
        for group, trace in (("end_to_end", False), ("per_layer", True)):
            self.assertEqual(printed[group],
                             run.expected_metrics(self.spec, trace))

    def test_result_check_rejects_unlisted_and_missing_metrics(self):
        metrics = {name: {"value": 1.0, "unit": unit} for name, unit in
                   run.expected_metrics(self.spec, False).items()}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}
        run.check_result(json.loads(json.dumps(result)), self.spec, False)
        extra = json.loads(json.dumps(result))
        extra["metrics"]["bogus_ms"] = {"value": 1.0, "unit": "ms"}
        with self.assertRaises(run.BenchError):
            run.check_result(extra, self.spec, False)
        missing = json.loads(json.dumps(result))
        del missing["metrics"]["p95_ms"]
        with self.assertRaises(run.BenchError):
            run.check_result(missing, self.spec, False)
        with self.assertRaises(run.BenchError):
            run.check_result(result, self.spec, True)


if __name__ == "__main__":
    unittest.main()
