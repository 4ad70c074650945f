#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- Every passing workload prints exactly the metrics BENCHMARK.json
  lists, with their units, and every end-to-end value is positive.
- With a fixed seed, two traced runs give identical exact counts.

Runs go through perfbench/run.py, which builds the benchmark first if needed.
Each run measures for one second.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = ["serve-warm", "compile-paper", "sim-paper"]

# Per-layer metrics that depend only on the inputs and the code, never on
# timing or on how long a run lasts.
EXACT = [
    "ir.text_bytes",
    "core.cache_hit_ratio",
    "core.cache_disk_hits",
    "serve.client_retries",
    "core.regions_melded",
    "core.artifact_bytes",
    "sim.instructions",
    "sim.cycles",
    "sim.divergent_branches",
    "sim.trace_instr_frac",
    "sim.batched_trace_instrs",
    "sim_cycles_ratio",
]


def run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s printed nothing:\n%s"
                             % (workload, proc.stderr[-2000:]))
    return proc.returncode, json.loads(lines[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class BenchmarkTest(unittest.TestCase):
    def test_spec_runs_every_workload(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(WORKLOADS))

    def test_end_to_end_metrics_match_spec(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, trace=0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(units(result["metrics"]), want)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_exact_counts_repeat(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, trace=1) for _ in range(2)]
                for code, result in runs:
                    self.assertEqual(code, 0)
                    self.assertEqual(units(result["metrics"]), want)
                first, second = (r["metrics"] for _, r in runs)
                for name in EXACT:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_exact_counts_describe_the_workload(self):
        _, warm = run("serve-warm", trace=1)
        self.assertEqual(warm["metrics"]["core.cache_hit_ratio"]["value"], 1)
        _, cold = run("compile-paper", trace=1)
        self.assertEqual(cold["metrics"]["core.cache_hit_ratio"]["value"], 0)
        self.assertGreater(cold["metrics"]["core.regions_melded"]["value"], 0)
        _, sim = run("sim-paper", trace=1)
        for name in ("sim.instructions", "sim.cycles", "sim_cycles_ratio"):
            self.assertGreater(sim["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
