"""The benchmark's own tests. Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build through perfbench/run.py (so the first run compiles) and run
the real workloads with --seconds 1, which each stretch to their minimum
sample counts (5-15 s a run); all of them take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ("lk23", "video", "serve", "dist")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_unit_tests_pass(self):
        run("--workload", "dist", "--seed", "1", "--seconds", "1", "--trace",
            "0")  # builds
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        unit = os.path.join(ROOT, base, "perfbench", "perfbench_unit")
        proc = subprocess.run([unit], capture_output=True, text=True,
                              timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_metric_names_match_benchmark_json(self):
        b = bench_json()
        self.assertEqual([w["name"] for w in b["workloads"]], list(WORKLOADS))
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = [(m["name"], m["unit"]) for m in b[key]]
            for w in WORKLOADS:
                proc = run("--workload", w, "--seed", "2", "--seconds", "1",
                           "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_line(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                got = [(k, v["unit"]) for k, v in res["metrics"].items()]
                self.assertEqual(got, want, f"{w} --trace {trace}")
                if trace == "0":
                    for name, v in res["metrics"].items():
                        self.assertGreater(v["value"], 0, f"{w} {name}")

    def test_corrupted_result_is_counted_and_fails_the_command(self):
        for w in WORKLOADS:
            proc = run("--workload", w, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--corrupt")
            self.assertEqual(proc.returncode, 1, f"{w}: {proc.stderr}")
            res = result_line(proc)
            self.assertFalse(res["correct"], w)
            self.assertEqual(res["failed"], 1, w)
            self.assertGreater(res["attempted"], 1, w)

    def test_refuses_to_run_without_the_library_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("--workload", "lk23", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
