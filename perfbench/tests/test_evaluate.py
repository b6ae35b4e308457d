"""Self-test of the benchmark's statistics, failure accounting and
fingerprint gate.

    python3 -m unittest discover -s perfbench/tests

The unit tests run on synthetic driver records. The end-to-end test
runs perfbench/run.py's main against a deliberately perturbed fingerprint
file and is skipped until the driver has been built once (any run.py call
builds it).
"""

import contextlib
import copy
import io
import json
import os
import sys
import unittest
from unittest import mock

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import evaluate  # noqa: E402
import run  # noqa: E402


def op(batch, **extra):
    record = {"task": "BPPR", "batch": batch, "rounds": 60 + batch,
              "logical_msgs": 1e9 + batch, "simulated_s": 420.5 + batch,
              "overloaded": False, "result": "bppr:%d" % batch, "ok": True,
              "error": ""}
    record.update(extra)
    return record


def layers(**extra):
    values = {"make_program_s": 0.01, "programs": 2, "engine_run_s": 0.80,
              "compute_s": 0.60, "group_busy_s": 0.10, "stage_busy_s": 0.05,
              "deliver_s": 0.15, "check_s": 0.01, "core_run_s": 0.83}
    values.update(extra)
    return values


COUNTERS = {"rounds": 130, "logical_msgs": 2.56e9, "simulated_s": 841.0,
            "overloaded_batches": 0, "batches": 2, "queries": 1,
            "wire_msgs": 2.56e9, "active_vertices": 2.56e7,
            "spill_bytes_written": 0,
            "spill_bytes_read": 0, "restored_msgs": 0, "spill_pages": 0,
            "cache_hits": 0, "cache_misses": 0, "cache_evictions": 0,
            "prefetch_loads": 0}


def make_record(walls, traced_layers=None):
    """A runner-workload record: pass 0 is the warm-up; with
    traced_layers every second measured pass is traced."""
    passes = []
    for i, wall in enumerate(walls):
        traced = traced_layers is not None and i > 0 and i % 2 == 0
        one = {"traced": traced, "wall_s": wall, "ops": [op(1), op(2)],
               "counters": dict(COUNTERS)}
        if traced:
            one["layers"] = traced_layers
        passes.append(one)
    return {"passes": passes, "ops_per_pass": 2, "lanes": 1,
            "dataset_scale": 256.0, "graph_vertices": 15625,
            "graph_edges": 124250, "peak_rss_mib": 180.0,
            "setups": [{"total_s": t, "generate_s": t - 0.001,
                        "partition_s": 0.001, "runner_s": 0.0}
                       for t in (0.031, 0.030, 0.035)]}


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(evaluate.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(evaluate.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            evaluate.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(evaluate.percentile(values, 50), 50)
        self.assertEqual(evaluate.percentile(values, 90), 90)
        self.assertEqual(evaluate.percentile(values, 99.9), 100)
        self.assertEqual(evaluate.percentile([7.0], 90), 7.0)

    def test_sample_count_rule(self):
        # A percentile needs ten samples beyond it.
        self.assertIsNone(evaluate.supported_percentile(9))
        self.assertIsNone(evaluate.supported_percentile(19))
        self.assertEqual(evaluate.supported_percentile(20), 50.0)
        self.assertEqual(evaluate.supported_percentile(40), 75.0)
        self.assertEqual(evaluate.supported_percentile(99), 75.0)
        self.assertEqual(evaluate.supported_percentile(100), 90.0)
        self.assertEqual(evaluate.supported_percentile(1000), 99.0)
        self.assertEqual(evaluate.supported_percentile(10000), 99.9)

    def test_timing_summary_states_count_and_tail(self):
        summary = evaluate.timing_summary([float(v) for v in range(1, 41)])
        self.assertEqual(summary["n"], 40)
        self.assertEqual(summary["median"], 20.5)
        self.assertEqual(summary["percentile"], 75.0)
        self.assertEqual(summary["percentile_value"], 30.0)
        short = evaluate.timing_summary([1.0, 2.0, 3.0])
        self.assertIsNone(short["percentile"])
        self.assertIsNone(short["percentile_value"])


class FailureAccountingTest(unittest.TestCase):
    def test_clean_passes(self):
        passes = [{"ops": [op(1), op(2)]} for _ in range(3)]
        attempted, failed, reasons = evaluate.check_passes(
            passes, [op(1), op(2)], 2)
        self.assertEqual((attempted, failed, reasons), (6, 0, []))
        self.assertEqual(evaluate.failed_frac(attempted, failed), 0.0)

    def test_each_kind_of_failure_counts_once(self):
        reference = [op(1), op(2)]
        passes = [
            {"ops": [op(1), op(2)]},
            {"ops": [op(1, ok=False, error="INTERNAL: boom"), op(2)]},
            {"ops": [op(1), op(2, overloaded=True)]},
            {"ops": [op(1, rounds=99), op(2)]},
            {"ops": [op(1)]},  # Truncated: batch 2 never ran.
        ]
        attempted, failed, reasons = evaluate.check_passes(passes,
                                                           reference, 2)
        self.assertEqual(attempted, 10)
        self.assertEqual(failed, 4)
        self.assertAlmostEqual(evaluate.failed_frac(attempted, failed), 0.4)
        joined = "\n".join(reasons)
        self.assertIn("pass 1 op 0: INTERNAL: boom", joined)
        self.assertIn("pass 2 op 1: overloaded", joined)
        self.assertIn("pass 3 op 0: fingerprint mismatch in rounds", joined)
        self.assertIn("pass 4 op 1: truncated", joined)

    def test_no_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            evaluate.failed_frac(0, 0)


class FingerprintGateTest(unittest.TestCase):
    def test_matching_fingerprint_passes(self):
        record = make_record([1.2, 1.0, 1.1, 1.05])
        result, details = evaluate.evaluate(record, [op(1), op(2)],
                                            trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 8)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(result["metrics"]["run_s"], 1.05)  # Warm-up out.
        self.assertEqual(result["metrics"]["setup_s"], 0.031)
        self.assertEqual(details["run_s"]["n"], 3)

    def test_perturbed_fingerprint_fails_every_pass(self):
        record = make_record([1.2, 1.0, 1.1, 1.05])
        perturbed = [op(1), op(2)]
        perturbed[1]["simulated_s"] += 1e-9  # Bit-exact comparison.
        result, details = evaluate.evaluate(record, perturbed, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)
        self.assertEqual(details["failed_frac"], 0.5)
        self.assertIn("simulated_s", details["failures"][0])


class TracedRunTest(unittest.TestCase):
    def test_layers_tile_the_pass(self):
        record = make_record([1.0, 0.84, 0.85, 0.84, 0.85],
                             traced_layers=layers())
        result, details = evaluate.evaluate(record, [op(1), op(2)],
                                            trace=True)
        m = result["metrics"]
        self.assertTrue(result["correct"])
        self.assertAlmostEqual(m["engine.other_s"], 0.05)
        self.assertAlmostEqual(m["core.runner_other_s"], 0.01)
        self.assertAlmostEqual(m["trace.untiled_frac"], 0.02 / 0.85)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.85 - 0.84)
        self.assertAlmostEqual(m["engine.compute_ns_per_msg"],
                               1e9 * 0.60 / (2.56e9 / 256.0))
        self.assertLess(details["tiling_error"], 1e-12)
        self.assertIn("ooc.spill_pages", details["notes"])

    def test_overlapping_timers_fail_the_tiling_check(self):
        # Compute reported longer than the engine span around it: the
        # defect where compute_ms exceeded wall_ms.
        record = make_record([1.0, 0.84, 0.85, 0.84, 0.86],
                             traced_layers=layers(compute_s=0.75))
        result, details = evaluate.evaluate(record, [op(1), op(2)],
                                            trace=True)
        self.assertFalse(result["correct"])
        self.assertGreater(details["tiling_error"],
                           evaluate.TILING_TOLERANCE)

    def test_declared_metric_set_matches_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        traced = make_record([1.0, 0.84, 0.85, 0.84, 0.86],
                             traced_layers=layers())
        result, _ = evaluate.evaluate(traced, [op(1), op(2)], trace=True)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec["per_layer"]))
        concurrent = copy.deepcopy(traced)
        concurrent["lanes"] = 2
        result, _ = evaluate.evaluate(concurrent, [op(1), op(2)],
                                      trace=True)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec["per_layer"]))
        untraced, _ = evaluate.evaluate(make_record([1.0, 0.9, 0.8]),
                                        [op(1), op(2)], trace=False)
        self.assertEqual(sorted(untraced["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))


class EndToEndTest(unittest.TestCase):
    """run.py with a perturbed fingerprint must fail the run."""

    def setUp(self):
        self.out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(self.out_dir):
            self.out_dir = os.path.join(ROOT, self.out_dir)
        if not os.path.exists(os.path.join(self.out_dir,
                                           "perfbench_driver")):
            self.skipTest("driver not built yet; run perfbench/run.py once")

    def test_perturbed_fingerprint_exits_nonzero(self):
        with open(run.FINGERPRINTS) as f:
            fingerprints = json.load(f)
        ops = fingerprints["workloads"]["concurrent-mix"]
        ops[0]["rounds"] += 1
        path = os.path.join(self.out_dir, "perturbed-fingerprints.json")
        with open(path, "w") as f:
            json.dump(fingerprints, f)
        argv = ["run.py", "--workload", "concurrent-mix", "--seconds", "0"]
        out = io.StringIO()
        try:
            with mock.patch.object(run, "FINGERPRINTS", path), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out):
                code = run.main()
        finally:
            os.remove(path)
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("fingerprint mismatch in rounds", out.getvalue())


if __name__ == "__main__":
    unittest.main()
