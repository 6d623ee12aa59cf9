#!/usr/bin/env python3
"""Self-test of the benchmark: short-mode runs of every workload.

    python3 perfbench/test_perfbench.py

Each workload runs twice untraced with one seed and once traced. The test
checks that every run reports exactly the metrics BENCHMARK.json names, each
with its unit, that no operation failed and every output check passed, and
that the two untraced runs report equal quality metrics.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("eval_auc", "recall_at_20", "ndcg_at_20")
SEED = 5


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "2",
         "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError("run failed:\n" + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):

    def assert_result(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for metric in metrics:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"], metric["name"])

    def test_every_workload(self):
        for workload in SPEC["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name):
                first = run(name, 0)
                self.assert_result(first, SPEC["end_to_end"])
                second = run(name, 0)
                for metric in QUALITY:
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"],
                                     metric)
                self.assert_result(run(name, 1), SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
