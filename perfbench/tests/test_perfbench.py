#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds perfbench like run.py does, runs the C++ self-test (kernel parity and
layer attribution), then checks the --seed contract on every workload: two
seeds generate different inputs, report the same metric names, and both
verify.  Takes a few minutes.
"""
import json
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py)

SECONDS = "2"


def bench(workload, seed, trace=0):
    """Runs run.py; returns (exit code, stdout lines)."""
    p = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT, timeout=300)
    return p.returncode, p.stdout.splitlines()


def workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


class SelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        bd = run.build()
        p = subprocess.run([str(bd / "perfbench_selftest")], stdout=subprocess.PIPE,
                           text=True, timeout=300)
        print(p.stdout)
        self.assertEqual(p.returncode, 0, p.stdout)


class SeedTest(unittest.TestCase):
    def test_two_seeds_change_inputs_keep_metrics_and_verify(self):
        run.build()
        for w in workloads():
            with self.subTest(workload=w):
                runs = [bench(w, seed) for seed in (11, 12)]
                results, inputs = [], []
                for code, lines in runs:
                    self.assertEqual(code, 0, lines[-3:])
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    results.append(result)
                    inputs.append([l for l in lines if ": inputs=" in l])
                self.assertEqual(set(results[0]["metrics"]), set(results[1]["metrics"]))
                self.assertTrue(inputs[0] and inputs[1])
                self.assertNotEqual(inputs[0], inputs[1])

    def test_refuses_oss_knobs(self):
        env = dict(os.environ, OSS_NUM_THREADS="2")
        p = subprocess.run(
            [sys.executable, str(HERE.parent / "run.py"), "--workload", "opgraph",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=run.ROOT, env=env, timeout=300)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
