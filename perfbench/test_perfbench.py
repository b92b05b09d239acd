#!/usr/bin/env python3
"""Self-tests of the benchmark (not of the library).

    python3 perfbench/test_perfbench.py

Builds through perfbench/run.py like a normal run, then checks, on every
workload, with short traced runs:

  * every deterministic counter (DETERMINISTIC below) and every digest
    repeats exactly across two runs of one seed, even when the runs differ
    in length (--seconds) and therefore in timing;
  * another seed changes the digests;
  * no deterministic counter carries a unit of time;
  * a poisoned reference digest makes the command fail.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve_mem", "serve_disk_anti", "ingest_serve"]
TIME_UNITS = {"s", "ms", "us", "ns"}

# Per-layer metrics that are counts of work on fixed inputs: pure
# functions of (workload, seed), never read off a clock.
DETERMINISTIC = [
    "assign.loops",
    "assign.pairs_per_loop",
    "topk.probes_per_call",
    "topk.restarts",
    "topk.blocks",
    "skyline.size",
    "skyline.nodes_read",
    "skyline.update_nodes_read",
    "storage.io_per_request",
    "storage.hit_rate",
    "update.tree_ops_per_batch",
    "update.compactions",
    "update.overlay_entries",
    "recover.checkpoints",
    "recover.records_replayed",
    "premise.skyline_size_ratio",
]


def run(workload, seed, seconds, trace="1", extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digests = sorted(line for line in lines if line.startswith("digest "))
    return proc.returncode, result, digests


class DeterminismTest(unittest.TestCase):
    def test_counters_and_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a, digests_a = run(workload, 7, 3)
                code_b, b, digests_b = run(workload, 7, 4)
                code_c, _, digests_c = run(workload, 8, 3)
                self.assertEqual((code_a, code_b, code_c), (0, 0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                self.assertTrue(digests_a)
                self.assertEqual(digests_a, digests_b)
                self.assertNotEqual(digests_a, digests_c)
                for name in DETERMINISTIC:
                    self.assertIn(name, a["metrics"])
                    self.assertNotIn(a["metrics"][name]["unit"], TIME_UNITS,
                                     name)
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)


class CorrectnessGateTest(unittest.TestCase):
    def test_digest_mismatch_fails_the_run(self):
        code, result, _ = run("serve_mem", 7, 2, trace="0",
                              extra=["--corrupt-reference"])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
