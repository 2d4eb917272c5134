#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload once untraced and once traced at the shortest length
(one unit of work each, on the default seed 1), and checks that

- each run exits 0 and ends with the result line: correct, attempted,
  failed and metrics;
- the printed metric names and units are exactly those of BENCHMARK.json;
- every run is correct and its digest matches perfbench/expected_digests.json;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Takes about two minutes on a 4-core host once the benchmark is built.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkSmoke(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertTrue(lines[0].startswith("# fingerprint "), lines[0])
        return lines

    def test_workloads(self):
        expected = json.loads((HERE / "expected_digests.json").read_text())
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                lines = self.check_run(w, 0)
                digest = expected[w][str(DEFAULT_SEED)]
                self.assertIn(f"# digest {digest} ", "\n".join(lines))
            with self.subTest(workload=w, trace=1):
                self.check_run(w, 1)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p)
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare,
                         script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
