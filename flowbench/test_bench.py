"""Self-tests of the flow benchmark's statistics, failure counting, result
parsing and comparison. Run with

    python3 -m unittest discover -s flowbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import tempfile
import unittest

import bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPEC = {
    "end_to_end": [
        {"name": "flow_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "gp.step_ms", "unit": "ms", "better": "lower"}],
}


def flow(sub, secs=1.0, bits="aa", failure=None, hpwl=10.0, converged=True, opt=5.0):
    return {
        "subseed": sub, "flow_s": secs, "hpwl_bits": bits, "failure": failure, "hpwl": hpwl,
        "subopt_ratio": None if opt is None else hpwl / opt, "mgp_overflow": 0.09,
        "mgp_converged": converged,
    }


def record(workload, metrics, seed=0):
    return {
        "workload": workload, "seed": seed, "trace": 0, "meta": {},
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


class Statistics(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0]
        self.assertEqual(bench.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(bench.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(bench.spread([2.5]), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 10.0, 11.0, 12.0, 12.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bench.spread(values), (q3 - q1) / q2)

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            bench.quartiles([])

    def test_subseeds_are_fixed_per_seed(self):
        self.assertEqual(bench.subseeds(7, 3), [7000, 7001, 7002])
        self.assertEqual(bench.subseeds(7, 3), bench.subseeds(7, 3))
        self.assertFalse(set(bench.subseeds(1, 3)) & set(bench.subseeds(2, 3)))


class FailureCounting(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        attempted, failures = bench.gate_flows([flow(1), flow(2, bits="bb")], {})
        self.assertEqual((attempted, failures), (2, []))

    def test_program_failure_counts_and_is_kept(self):
        flows = [flow(1), flow(2, failure="illegal placement: overlap")]
        attempted, failures = bench.gate_flows(flows, {})
        self.assertEqual(attempted, 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("illegal placement", failures[0])

    def test_history_with_other_bits_fails(self):
        _, failures = bench.gate_flows([flow(1, bits="aa")], {1: "ff"})
        self.assertEqual(len(failures), 1)
        _, failures = bench.gate_flows([flow(1, bits="aa")], {1: "aa", 2: "ff"})
        self.assertEqual(failures, [])

    def test_end_to_end_means_designs(self):
        out = {
            "flows": [flow(1, 2.0, hpwl=10.0), flow(2, 4.0, hpwl=30.0, converged=False)],
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_mb": 12.5,
        }
        v = bench.end_to_end(out)
        self.assertEqual(v["flow_s"], 3.0)
        self.assertEqual(v["setup_s"], 0.2)
        self.assertEqual(v["hpwl"], 20.0)
        self.assertEqual(v["subopt_ratio"], 4.0)
        self.assertEqual(v["mgp_converged"], 0.5)
        self.assertEqual(v["peak_rss_mb"], 12.5)

    def test_no_optimum_leaves_out_subopt_ratio(self):
        out = {"flows": [flow(1, opt=None)], "setup_s": [0.1], "peak_rss_mb": 1.0}
        self.assertNotIn("subopt_ratio", bench.end_to_end(out))

    def test_err_flow_is_counted_not_averaged(self):
        # What `flowbench run` prints for a flow whose `Placer::run` failed:
        # the figures it never reached are null.
        err = {**flow(2, 5.0, failure="Placer::run failed: diverged"),
               "hpwl": None, "subopt_ratio": None, "mgp_overflow": None,
               "mgp_converged": False, "hpwl_bits": "7ff8000000000000"}
        out = {"flows": [flow(1, 1.0, hpwl=10.0), err], "setup_s": [0.1], "peak_rss_mb": 1.0}
        attempted, failures = bench.gate_flows(out["flows"], {})
        self.assertEqual((attempted, len(failures)), (2, 1))
        v = bench.end_to_end(out)
        self.assertEqual(v["flow_s"], 3.0)
        self.assertEqual(v["hpwl"], 10.0)
        self.assertEqual(v["mgp_converged"], 1.0)
        specs = bench.metric_specs(SPEC, trace=False)
        line = bench.parse_result_line(
            bench.result_line(False, attempted, len(failures), {**v, "quality": 1.0}, specs))
        self.assertEqual((line["correct"], line["failed"]), (False, 1))

    def test_every_flow_failed_still_gives_a_result_line(self):
        err = {**flow(1, 5.0, failure="Placer::run failed"), "hpwl": None,
               "subopt_ratio": None, "mgp_overflow": None}
        v = bench.end_to_end({"flows": [err], "setup_s": [0.1], "peak_rss_mb": 1.0})
        self.assertNotIn("hpwl", v)
        specs = bench.metric_specs(SPEC, trace=False)
        obj = bench.parse_result_line(bench.result_line(False, 1, 1, v, specs))
        self.assertEqual((obj["correct"], obj["attempted"], obj["failed"]), (False, 1, 1))
        self.assertEqual(set(obj["metrics"]), {"flow_s"})


class ResultParsing(unittest.TestCase):
    specs = bench.metric_specs(SPEC, trace=False)

    def test_result_line_round_trips(self):
        line = bench.result_line(True, 3, 0, {"flow_s": 1.25, "quality": 2.0, "x": 1}, self.specs)
        obj = bench.parse_result_line("summary\n" + line + "\n")
        self.assertEqual(set(obj["metrics"]), {"flow_s", "quality"})
        self.assertEqual(obj["metrics"]["flow_s"], {"value": 1.25, "unit": "s"})

    def test_missing_or_non_finite_metric_is_refused(self):
        with self.assertRaises(ValueError):
            bench.result_line(True, 1, 0, {"flow_s": 1.0}, self.specs)
        with self.assertRaises(ValueError):
            bench.result_line(True, 1, 0, {"flow_s": float("nan"), "quality": 1.0}, self.specs)

    def test_bad_result_lines(self):
        good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        for bad in (
            {**good, "extra": 1},
            {**good, "attempted": 0},
            {**good, "failed": 2},
            {**good, "correct": "yes"},
            {**good, "metrics": {"m": {"value": "1", "unit": "s"}}},
        ):
            with self.assertRaises(ValueError, msg=bad):
                bench.parse_result_line(json.dumps(bad))
        with self.assertRaises(ValueError):
            bench.parse_result_line("\n\n")

    def test_load_results_skips_blanks_and_rejects_garbage(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r.jsonl")
            with open(path, "w") as fh:
                fh.write(json.dumps(record("w", {"flow_s": 1.0})) + "\n\n")
            self.assertEqual(len(bench.load_results(path)), 1)
            with open(path, "a") as fh:
                fh.write("{not json\n")
            with self.assertRaises(ValueError):
                bench.load_results(path)
            with open(path, "w") as fh:
                fh.write(json.dumps({"workload": "w"}) + "\n")
            with self.assertRaises(ValueError):
                bench.load_results(path)


class Compare(unittest.TestCase):
    def rows(self, base, head, metric="flow_s"):
        b = [record("w", {metric: v}) for v in base]
        h = [record("w", {metric: v}) for v in head]
        (row,) = bench.compare(b, h, SPEC)
        return row

    def test_regression_past_the_bound(self):
        row = self.rows([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5])
        self.assertEqual(row["verdict"], "regressed")
        self.assertAlmostEqual(row["delta"], 0.15)

    def test_within_bound_is_ok(self):
        row = self.rows([10.0, 10.1, 9.9, 10.0], [10.3, 10.4, 10.2, 10.3])
        self.assertEqual(row["verdict"], "ok")

    def test_wide_spread_is_unresolved(self):
        row = self.rows([10.0, 10.1, 9.9, 10.0], [8.0, 12.0, 9.0, 11.5])
        self.assertEqual(row["verdict"], "unresolved")

    def test_wide_but_every_run_better_is_resolved(self):
        row = self.rows([10.0, 14.0, 11.0, 13.5], [5.0, 7.0, 6.0, 6.5])
        self.assertEqual(row["verdict"], "ok")

    def test_higher_is_better_direction(self):
        row = self.rows([2.0, 2.0, 2.0], [1.5, 1.5, 1.5], metric="quality")
        self.assertEqual(row["verdict"], "regressed")

    def test_per_layer_metrics_get_no_verdict(self):
        row = self.rows([1.0, 1.0], [2.0, 2.0], metric="gp.step_ms")
        self.assertIsNone(row["verdict"])

    def test_unlisted_record_metrics_are_shown_without_verdict(self):
        row = self.rows([8.0, 8.2], [9.5, 9.6], metric="subopt_ratio")
        self.assertIsNone(row["verdict"])
        self.assertEqual(row["unit"], "s")


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json stays within the limits its readers rely on."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.b = json.load(fh)

    def test_shape(self):
        self.assertEqual(
            set(self.b),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= self.b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.b["workloads"]) <= 8)
        for w in self.b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertIn(w["name"], bench.WORKLOADS)
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [m["name"] for m in self.b["end_to_end"] + self.b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.b["end_to_end"] + self.b["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in self.b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.b["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
