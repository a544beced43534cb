#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_run.py      (from the checkout root)

Reduced-size (`--smoke`) runs of each workload exercise every check the
benchmark makes: history digests equal between untraced and traced
runs, the bit-for-bit replay of every scored point, served streams
byte-identical to in-process runs, the best design's simulated
statistics and the provenance comparison. A determinism test runs each
workload twice with the same seed and compares counts, digests and
simulated statistics. A last test checks that the benchmark refuses to
run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(*args):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return res


class SmokeRuns(unittest.TestCase):
    def check_workload(self, workload):
        for trace in ("0", "1"):
            res = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--smoke")
            self.assertEqual(res.returncode, 0, res.stderr)
            out = json.loads(res.stdout.strip().splitlines()[-1])
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"], res.stdout)
            self.assertEqual(out["failed"], 0)
            self.assertGreaterEqual(out["attempted"], 1)
            key = "end_to_end" if trace == "0" else "per_layer"
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            self.assertEqual({n: v["unit"] for n, v in out["metrics"].items()}, want)
            if trace == "0":
                for name, v in out["metrics"].items():
                    self.assertGreater(v["value"], 0, name)
        # The span file holds parent links and per-candidate or per-job ids.
        with open(os.path.join(ROOT, ".bench_work", f"{workload}-spans.jsonl")) as f:
            spans = [json.loads(line) for line in f]
        ids = {s["id"] for s in spans}
        self.assertTrue(all(s["parent"] == 0 or s["parent"] in ids for s in spans))
        self.assertTrue(all(s["end_us"] >= s["start_us"] for s in spans))
        tag = "job" if workload == run.V else "iter"
        self.assertTrue(any(tag in s for s in spans), f"no span carries a {tag} id")

    def test_paper_search(self):
        self.check_workload(run.P)

    def test_surrogate_search(self):
        self.check_workload(run.S)

    def test_served_jobs(self):
        self.check_workload(run.V)


class Determinism(unittest.TestCase):
    def test_two_runs_agree(self):
        exe = run.build()
        self.assertIsNotNone(exe)
        work = os.path.join(ROOT, ".bench_work", "determinism")
        for workload in run.WORKLOADS:
            a, b = (run.round_(exe, workload, 11, work, ["--units", "1", "--smoke"])
                    if workload != run.V else
                    run.round_(exe, workload, 11, work, ["--smoke"])
                    for _ in range(2))
            self.assertEqual(run.meta_of(a), run.meta_of(b))
            for field in ("units", "attempted", "problems", "digests", "e2e:best_reward"):
                self.assertEqual(a[field], b[field], f"{workload}: {field}")
            self.assertEqual(run.designs_of(a), run.designs_of(b), workload)
            self.assertTrue(a["digests"])
        shutil.rmtree(work, ignore_errors=True)


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.S, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
