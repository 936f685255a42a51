"""Tests for the pure pieces of run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest

import run


def spec_text(**overrides):
    """The repository's BENCHMARK.json with top-level keys overridden."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec.update(overrides)
    return json.dumps(spec)


def result_for(spec, trace, **metric_values):
    group = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": metric_values.get(m["name"], 1.5), "unit": m["unit"]} for m in group}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


class NameValidation(unittest.TestCase):
    def test_accepts_the_metric_alphabet(self):
        for name in ["setup_s", "store.query_cold_ms", "a-b.c_d", "9lives", "x" * 64]:
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ["", "_lead", ".lead", "has space", "per/sec", "ünï", "x" * 65, 7, None]:
            self.assertFalse(run.valid_name(name), name)


class SpecParsing(unittest.TestCase):
    def test_repository_spec_is_valid(self):
        spec = run.parse_spec(spec_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["offline_profile", "fleet_ingest", "journal_query"])
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_every_sensitivity_pair_names_declared_things(self):
        spec = run.parse_spec(spec_text())
        workloads = {w["name"] for w in spec["workloads"]}
        e2e = {m["name"] for m in spec["end_to_end"]}
        for workload, _, metric in run.SENSITIVITY:
            self.assertIn(workload, workloads)
            self.assertIn(metric, e2e)

    def test_rejects_format_breaks(self):
        base = json.loads(spec_text())
        broken = []
        for key, value in [("run_seconds", 61), ("run_seconds", 2.5), ("command", ["/usr/bin/python3"]),
                           ("paths", ["../elsewhere"]), ("workloads", base["workloads"][:1])]:
            broken.append(spec_text(**{key: value}))
        s = copy.deepcopy(base)
        s["end_to_end"][0]["bound"] = 0.3
        broken.append(json.dumps(s))
        s = copy.deepcopy(base)
        s["per_layer"][0]["name"] = "bad name"
        broken.append(json.dumps(s))
        s = copy.deepcopy(base)
        s["per_layer"].append(dict(s["per_layer"][0]))
        broken.append(json.dumps(s))
        s = copy.deepcopy(base)
        s["end_to_end"] = [m for m in s["end_to_end"] if m["name"] != "setup_s"]
        broken.append(json.dumps(s))
        s = copy.deepcopy(base)
        s["extra"] = 1
        broken.append(json.dumps(s))
        broken.append("{not json")
        for text in broken:
            with self.assertRaises(run.SpecError, msg=text[:120]):
                run.parse_spec(text)


class ResultChecking(unittest.TestCase):
    def setUp(self):
        self.spec = run.parse_spec(spec_text())

    def test_complete_results_pass(self):
        self.assertEqual(run.check_result(self.spec, result_for(self.spec, False), False), [])
        self.assertEqual(run.check_result(self.spec, result_for(self.spec, True), True), [])

    def test_missing_zero_and_mislabelled_metrics_fail(self):
        r = result_for(self.spec, False)
        del r["metrics"]["setup_s"]
        self.assertTrue(run.check_result(self.spec, r, False))
        r = result_for(self.spec, False, query_cold_p50_ms=0)
        self.assertTrue(run.check_result(self.spec, r, False))
        r = result_for(self.spec, False)
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(self.spec, r, False))
        r = result_for(self.spec, True)
        self.assertTrue(run.check_result(self.spec, r, False))

    def test_worsening_respects_direction(self):
        lower = {"better": "lower"}
        higher = {"better": "higher"}
        self.assertAlmostEqual(run.worsening(lower, 10.0, 12.5), 0.25)
        self.assertAlmostEqual(run.worsening(higher, 10.0, 8.0), 0.2)
        self.assertLess(run.worsening(higher, 10.0, 11.0), 0)


if __name__ == "__main__":
    unittest.main()
