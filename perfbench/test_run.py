"""Tests for the benchmark's own logic in run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import run


class TailPercentileTest(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(39), 50.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(19), 50.0)
        self.assertEqual(run.tail_percentile(1), 50.0)

    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 4.0)
        self.assertAlmostEqual(run.percentile(values, 50), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(101)), 95), 95.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    NAMES = ["iter", "runtime.invoke", "workloads.generate", "sim.run"]

    def test_self_time_subtracts_children(self):
        records = [
            [0, -1, 0, 100, 0],  # iter
            [2, 0, 10, 30, 0],   # workloads.generate, child of iter
            [1, 0, 40, 90, 0],   # runtime.invoke, child of iter
            [3, 2, 45, 65, 0],   # sim.run, child of runtime.invoke
        ]
        out = run.self_times(self.NAMES, records)
        self.assertEqual(out["iter"]["self_ns"], 100 - 20 - 50)
        self.assertEqual(out["iter"]["total_ns"], 100)
        self.assertEqual(out["runtime.invoke"]["self_ns"], 50 - 20)
        self.assertEqual(out["workloads.generate"]["self_ns"], 20)
        self.assertEqual(out["sim.run"]["self_ns"], 20)

    def test_overlapping_and_overhanging_children_count_once(self):
        records = [
            [0, -1, 0, 100, 0],
            [1, 0, 10, 50, 0],
            [2, 0, 30, 70, 0],   # overlaps the first child by 20
            [1, 0, 90, 130, 0],  # runs past the parent's end
        ]
        out = run.self_times(self.NAMES, records)
        self.assertEqual(out["iter"]["self_ns"], 100 - 60 - 10)
        self.assertEqual(out["runtime.invoke"]["calls"], 2)
        self.assertEqual(out["runtime.invoke"]["self_ns"], 40 + 40)

    def test_timed_records_drop_setup_and_reindex_parents(self):
        records = [
            [0, -1, 0, 10, -1],  # set-up root
            [1, 0, 1, 5, -1],
            [0, -1, 20, 40, 0],  # timed root
            [1, 2, 25, 35, 0],
        ]
        timed = run.timed_records(records)
        self.assertEqual(timed, [[0, -1, 20, 40, 0], [1, 0, 25, 35, 0]])
        self.assertEqual(run.self_times(self.NAMES, timed)["iter"]["self_ns"], 10)


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "mem.faults_per_inv.anon", "a-b.c_d", "9lives", "x" * 64):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "p99%"):
            self.assertNotRegex(bad, run.NAME_RE)
        for good in ("ms", "s", "1/s", "count", "%", "sim_ms", "faults/inv"):
            self.assertRegex(good, run.UNIT_RE)
        for bad in ("", "m s", "x" * 17):
            self.assertNotRegex(bad, run.UNIT_RE)

    def test_benchmark_json(self):
        spec = run.load_spec(os.path.join(run.ROOT, "BENCHMARK.json"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_load_spec_rejects_repeated_and_malformed_names(self):
        base = {"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s"}],
                "per_layer": [{"name": "a.b", "unit": "count"}]}
        for broken in ({"per_layer": [{"name": "setup_s", "unit": "count"}]},
                       {"per_layer": [{"name": "a b", "unit": "count"}]},
                       {"per_layer": [{"name": "a.b", "unit": "not a unit"}]}):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "BENCHMARK.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(dict(base, **broken), f)
                with self.assertRaises(ValueError):
                    run.load_spec(path)


class OutputParsingTest(unittest.TestCase):
    @staticmethod
    def raw_doc():
        # Five passes of 20 iterations; the calibration round took twice the
        # reference time next to pass 2, so that pass ran on a machine at half
        # speed and scales back to the others.
        ref = run.CAL_REFERENCE_S
        iter_cal = [ref] * 40 + [2 * ref] * 20 + [ref] * 40
        iter_ms = [float(i % 20 + 1) for i in range(100)]
        iter_ms[40:60] = [2 * ms for ms in iter_ms[40:60]]
        return {
            "workload": "restore-matrix", "seed": 3, "trace": False, "threads": 1,
            "digest": "00ff", "peak_rss_kib": 2048, "setup_s": [0.3, 0.1, 0.2],
            "setup_cal_s": [ref, ref / 2, ref],
            "serial_scenario_s": [], "iterations_per_pass": 20, "min_passes": 3,
            "timed": {"iter_ms": iter_ms, "iter_cal_s": iter_cal,
                      "pass_s": [0.21] * 5, "pass_completed": [20, 20, 20, 20, 10],
                      "attempted": 100, "completed": 90, "failed": 0, "events": 500},
            "traced": {"iter_ms": [], "iter_cal_s": [], "pass_s": [], "pass_completed": [],
                       "attempted": 0, "completed": 0, "failed": 0, "events": 0},
            "sim": {"invocations": 10, "latency_ms_p50": 12.5, "latency_ms_p99": 40.0,
                    "cold_start_rate": 1.0},
            "violations": [],
            "spans": {"names": [], "records": []},
        }

    def test_parse_raw_takes_the_last_line(self):
        doc = self.raw_doc()
        self.assertEqual(run.parse_raw("progress\n\n" + json.dumps(doc) + "\n\n"), doc)
        with self.assertRaises(ValueError):
            run.parse_raw("")
        with self.assertRaises(ValueError):
            run.parse_raw('{"correct": true}')

    def test_scaling_cancels_a_slow_period(self):
        doc = self.raw_doc()
        for got, want in zip(run.scaled_iter_ms(doc["timed"]), [i % 20 + 1 for i in range(100)]):
            self.assertAlmostEqual(got, want)
        for got in run.scaled_pass_s(doc["timed"], 20):
            self.assertAlmostEqual(got, 0.21)

    def test_end_to_end_metrics(self):
        metrics, notes = run.end_to_end(self.raw_doc())
        # Set-up: median of the scaled [0.3, 0.2, 0.2].
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        # Every pass takes 0.21 s scaled; the last completed only 10.
        self.assertAlmostEqual(metrics["sim_inv_per_s"], 20 / 0.21)
        self.assertEqual(metrics["iter_ms_p50"], 10.5)
        # The tail rung follows min_passes x iterations_per_pass = 60.
        self.assertAlmostEqual(metrics["iter_ms_tail"], run.percentile(range(1, 21), 75))
        self.assertEqual(metrics["peak_rss_mib"], 2.0)
        self.assertEqual(metrics["ok_frac"], 1.0)
        self.assertTrue(any("p75 over 100 iterations" in n for n in notes))

    def test_result_line_has_exactly_the_contract_keys(self):
        spec = run.load_spec(os.path.join(run.ROOT, "BENCHMARK.json"))
        metrics, _ = run.end_to_end(self.raw_doc())
        line = json.dumps(run.result_line(spec["end_to_end"], metrics, (), self.raw_doc(), True))
        self.assertEqual(
            run.result_line(spec["end_to_end"], metrics, ("iter_",), self.raw_doc(), True)
            ["metrics"]["iter_ms_p50"]["value"], 0)
        parsed = json.loads(line)
        self.assertEqual(sorted(parsed), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(parsed["attempted"], 100)
        self.assertEqual(set(parsed["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for value in parsed["metrics"].values():
            self.assertEqual(sorted(value), ["unit", "value"])


if __name__ == "__main__":
    unittest.main()
