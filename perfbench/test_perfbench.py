#!/usr/bin/env python3
"""Short-run smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Checks that every workload emits each metric BENCHMARK.json names (with its
unit) plus the workload-specific metrics, that a deliberately corrupted
output trips each workload's oracle, and that a seed fixes the generated
inputs (datasets, arrival schedules, GEMM operands).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

# Metrics each workload prints as `metric <name> <value> <unit>` lines.
REPORT = {
    "train_cnn": ["step_ms", "step_p99_ms", "samples_per_s", "final_loss",
                  "modeled_step_us", "modeled_uj_per_sample"],
    "serve_mlp": ["light.p99_ms", "heavy.p50_ms", "heavy.p99_ms",
                  "heavy.goodput_rps", "loadgen.late_p99_ms.light",
                  "loadgen.late_p99_ms.heavy"],
    "engine_gemm": ["gemm_mac_per_s", "job_p99_ms"],
}
NN = "nn.%s.%s.%s"
TRACED = {
    "train_cnn": ["train.optimizer_ms", "train.non_gemm_ms",
                  "nn.backend_overhead_share"] +
    [NN % (l, d, m) for l in ("conv1", "conv2", "fc1", "fc2")
     for d in ("fwd", "bwd")
     for m in ("ms", "calls", "macs", "mac_per_s", "model_us")],
    "serve_mlp": ["nn.backend_overhead_share", "serve.queue_p50_ms",
                  "serve.queue_p99_ms", "serve.exec_p50_ms",
                  "serve.exec_p99_ms", "serve.batch_size_mean",
                  "serve.cache_hit_rate", "serve.stats_us.light",
                  "serve.stats_us.heavy", "runtime.utilization",
                  "runtime.jobs_per_batch", "runtime.job_retries",
                  "runtime.max_queue_depth"] +
    [NN % (l, "fwd", m) for l in ("fc1", "fc2", "fc3")
     for m in ("ms", "calls", "macs", "mac_per_s", "model_us",
               "rows_per_call")],
    "engine_gemm": ["runtime.queue_p99_ms", "runtime.exec_p50_ms",
                    "runtime.utilization", "runtime.jobs_per_batch",
                    "runtime.job_retries", "runtime.max_queue_depth"],
}


def run(workload, seed=1, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)] +
        list(extra), cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    meta = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "meta":
            meta[parts[1]] = " ".join(parts[2:])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, metrics, meta, proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Benchmark(unittest.TestCase):

    def check_result(self, result, names):
        self.assertIsNotNone(result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in names}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_emits_every_metric(self):
        for w in REPORT:
            with self.subTest(workload=w):
                rc, result, metrics, meta, proc = run(w)
                self.assertEqual(rc, 0, proc.stderr)
                self.check_result(result, spec()["end_to_end"])
                for name in REPORT[w] + ["failed_frac"]:
                    self.assertIn(name, metrics)
                    self.assertTrue(metrics[name][1])
                self.assertEqual(metrics["failed_frac"][0], 0.0)
                for key in ("seed", "nproc", "cpu", "pool_threads", "tiles",
                            "replicas", "setup_samples"):
                    self.assertIn(key, meta)

    def test_traced_emits_every_layer_metric(self):
        for w in TRACED:
            with self.subTest(workload=w):
                rc, result, metrics, meta, proc = run(w, 2, 1)
                self.assertEqual(rc, 0, proc.stderr)
                self.check_result(result, spec()["per_layer"])
                for name in TRACED[w]:
                    self.assertIn(name, metrics)
                self.assertTrue(any(k.startswith("trace_overhead.")
                                    for k in metrics))
                with open(meta["trace_file"]) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])

    def test_corrupted_output_trips_oracle(self):
        for w in REPORT:
            with self.subTest(workload=w):
                rc, result, _, _, _ = run(w, 3, 0, "--corrupt")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_loss_and_modeled_cost_repeat(self):
        keys = ("final_loss", "modeled_step_us", "modeled_uj_per_sample")
        first = run("train_cnn", 4)[2]
        second = run("train_cnn", 4)[2]
        for k in keys:
            self.assertEqual(first[k], second[k])

    def test_seed_fixes_inputs(self):
        def fingerprint(w, seed):
            rc, _, _, _, proc = run(w, seed, 0, "--fingerprint")
            self.assertEqual(rc, 0, proc.stderr)
            return proc.stdout.strip().splitlines()[-1]
        for w in REPORT:
            with self.subTest(workload=w):
                a = fingerprint(w, 5)
                self.assertEqual(a, fingerprint(w, 5))
                self.assertNotEqual(a, fingerprint(w, 6))


if __name__ == "__main__":
    unittest.main()
