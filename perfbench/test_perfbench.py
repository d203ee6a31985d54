#!/usr/bin/env python3
"""The benchmark's own tests, at smoke length (a few minutes in all):

    python3 perfbench/test_perfbench.py

- every declared metric is printed with its declared unit, and nothing
  fails (fail_ratio 0), for every workload, untraced and traced;
- the same seed gives byte-identical inputs, another seed different ones;
- one perturbed output cell is caught by the correctness check;
- the benchmark refuses to run without the library sources;
- compare.py refuses results from different host signatures.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

ROOT = run.ROOT
WORKLOADS = ("stream-cache", "tiled-llc", "serve-small")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "workloads.json")) as f:
    CFG = json.load(f)


class Args:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed


def bench(*args):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    return r


def binary(workload, seed, *extra):
    cmd = [BINARY] + run.binary_args(CFG, Args(workload, seed), 1.0) + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


class MetricsTest(unittest.TestCase):
    def check_result(self, r, declared):
        self.assertEqual(r.returncode, 0, r.stderr)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)  # fail_ratio is 0
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench("--workload", w, "--seed", "3", "--seconds", "2",
                          "--trace", "0")
                self.check_result(r, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertRegex(r.stdout, r'"%s": \{"value": ' % m["name"])

    def test_per_layer_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench("--workload", w, "--seed", "4", "--seconds", "3",
                          "--trace", "1")
                self.check_result(r, SPEC["per_layer"])
                self.assertIn("residual", r.stdout)
                trace = os.path.join(ROOT, ".bench_out", "trace-%s-seed4.json" % w)
                with open(trace) as f:
                    self.assertTrue(json.load(f)["traceEvents"])


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = binary(w, 11, "--digest")["metrics"]["inputs.digest"]["value"]
                b = binary(w, 11, "--digest")["metrics"]["inputs.digest"]["value"]
                c = binary(w, 12, "--digest")["metrics"]["inputs.digest"]["value"]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class DefectTest(unittest.TestCase):
    def test_perturbed_cell_is_caught(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = binary(w, 5, "--inject-defect")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertGreater(res["metrics"]["check.err_ratio_max"]["value"], 1.0)


class IsolationTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        d = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "stream-cache", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=d, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)
        shutil.rmtree(d)

    def test_compare_refuses_other_signature(self):
        d = os.path.join(ROOT, ".bench_out", "cmp")
        os.makedirs(d, exist_ok=True)
        base = {"workload": "stream-cache", "metrics": {
            "gpts_per_s": {"value": 1.0, "unit": "Gpt/s"}},
            "signature": {"cpu_model": "A", "isa": "avx512", "cores": 4,
                          "llc_bytes": 1, "build_type": "Release"}}
        other = json.loads(json.dumps(base))
        other["signature"]["cpu_model"] = "B"
        paths = []
        for i, r in enumerate((base, other)):
            paths.append(os.path.join(d, "%d.json" % i))
            with open(paths[-1], "w") as f:
                json.dump(r, f)
        self.assertEqual(compare.main(["--old", paths[0], "--new", paths[1]]), 2)
        self.assertEqual(compare.main(["--old", paths[0], "--new", paths[0]]), 0)
        shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
