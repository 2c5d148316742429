"""Self-tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The error-rate tests build and run the
driver at the benchmark's own input sizes for one second each (a few
seconds of set-up per test once it is built).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100
        self.assertEqual(run.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 90), 90.1)
        self.assertEqual(run.percentile([7.0], 99), 7.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0), 1.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail_percentile(9))
        self.assertIsNone(run.tail_percentile(99))
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_tail_names(self):
        self.assertEqual(run.tail_name("request", 99.0), "request_p99_ms")
        self.assertEqual(run.tail_name("push", 90.0), "push_p90_ms")
        self.assertEqual(run.tail_name("push", 99.9), "push_p999_ms")

    def test_spread_is_iqr_over_median(self):
        xs = [9.0, 10.0, 10.0, 10.0, 11.0]
        self.assertAlmostEqual(run.spread(xs), 0.1)


class NameValidationTest(unittest.TestCase):
    def bench(self, e2e=None, per_layer=None):
        return {
            "workloads": [{"name": "w1", "why": "x"}],
            "end_to_end": e2e or [{"name": "op_ms", "unit": "ms"}],
            "per_layer": per_layer or [{"name": "layer.x_ms", "unit": "ms"}],
        }

    def test_repository_benchmark_is_valid(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            e2e, per_layer = run.validate_bench(json.load(f))
        names = [m["name"] for m in e2e]
        self.assertIn("setup_s", names)
        self.assertTrue(per_layer)

    def test_accepts_good_names(self):
        run.validate_bench(self.bench())

    def test_rejects_bad_names_and_units(self):
        for bad in ("_x", "a b", "x" * 65, "", "é"):
            with self.assertRaises(run.BenchError, msg=bad):
                run.validate_bench(self.bench(e2e=[{"name": bad, "unit": "ms"}]))
        with self.assertRaises(run.BenchError):
            run.validate_bench(self.bench(e2e=[{"name": "a", "unit": "m s"}]))

    def test_rejects_a_name_used_twice(self):
        with self.assertRaises(run.BenchError):
            run.validate_bench(self.bench(
                e2e=[{"name": "a", "unit": "ms"}],
                per_layer=[{"name": "a", "unit": "ms"}]))


def fake_doc(samples, attempted=10, failed=0):
    return {
        "workload": "explore", "trace": False,
        "context": {"op_series": "request_ms", "seed": 1},
        "tally": {"attempted": attempted, "failed": failed,
                  "first_failures": []},
        "ledger": {"series": {"request_ms": samples, "setup_s": [1.0, 2.0, 3.0]},
                   "values": {"ops_per_s": 5.0, "peak_rss_mb": 100.0}},
    }


class SummarizeTest(unittest.TestCase):
    E2E = [{"name": "op_ms", "unit": "ms"}, {"name": "setup_s", "unit": "s"}]

    def test_medians_and_error_rate(self):
        m = run.summarize(fake_doc([1.0, 2.0, 30.0], attempted=8, failed=2))
        self.assertEqual(m["op_ms"][0], 2.0)
        self.assertEqual(m["setup_s"][0], 2.0)
        self.assertEqual(m["error_rate"][0], 0.25)
        line = run.result_line(fake_doc([1.0]), m, self.E2E)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"op_ms", "setup_s"})

    def test_a_failure_makes_the_run_incorrect(self):
        doc = fake_doc([1.0], attempted=5, failed=1)
        line = run.result_line(doc, run.summarize(doc), self.E2E)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_tail_only_with_enough_samples(self):
        few = run.summarize(fake_doc([1.0] * 99))
        self.assertFalse(any("_p90_" in k for k in few))
        many = run.summarize(fake_doc([float(i) for i in range(100)]))
        self.assertIn("request_p90_ms", many)

    def test_missing_metric_is_an_error(self):
        doc = fake_doc([1.0])
        with self.assertRaises(run.BenchError):
            run.result_line(doc, run.summarize(doc),
                            [{"name": "absent_ms", "unit": "ms"}])


def bench(*args):
    """Runs perfbench/run.py from the repository root; returns the result."""
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py")]
                          + list(args), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ErrorRateTest(unittest.TestCase):
    SHORT = ["--seed", "3", "--seconds", "1"]

    def test_clean_run_has_no_failures(self):
        line = bench("--workload", "hub", *self.SHORT)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreater(line["attempted"], 0)

    def test_a_wrong_body_counts_as_failed(self):
        line = bench("--workload", "explore", "--inject", "wrong_body", *self.SHORT)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_a_refused_push_counts_as_failed(self):
        line = bench("--workload", "hub", "--inject", "refuse_push", *self.SHORT)
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)


if __name__ == "__main__":
    unittest.main()
