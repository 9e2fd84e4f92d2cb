#!/usr/bin/env python3
"""Self-test of the o1mem benchmark: runs the quick mode of every workload,
untraced and traced, and checks that every metric BENCHMARK.json names is
printed with its unit, that every per-layer metric is measured on some
workload, that every correctness and determinism check passes (the binary
exits nonzero otherwise), and that two processes given one seed print
identical simulated values.

    python3 o1bench/selftest.py [--binary PATH]

Without --binary it builds the benchmark the way run.py does.
"""
import argparse
import functools
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = None

# Per-layer metrics that read 0 on every workload, and why. Any other name
# that reads 0 everywhere has lost its source (a renamed span or counter).
ZERO_EVERYWHERE = {
    **{f"{call}.fail": "no workload makes this call fail"
       for call in ("sim.read_virt", "sim.write_virt", "sim.touch", "tier.tick", "os.munmap",
                    "os.mprotect", "os.fork", "os.exit", "os.creat", "os.ftruncate",
                    "os.reclaim")},
    "tier.demotions": "kv_zipf demotes after 128 cold windows, more than a run has",
    "chaos.breaker_transitions": "serve_open runs no fault campaign, so no breaker trips",
    "chaos.generator_late_us": "the simulated generator is never late",
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def quick(workload, trace):
    """Runs the quick mode once; returns (exit code, result or None, stderr)."""
    code, out, err = run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace,
                         "--quick")
    lines = out.strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 and lines else None, err


cached_quick = functools.lru_cache(maxsize=None)(quick)


def simulated(name):
    """Metrics on the simulated clock, and counts: a function of the seed alone."""
    return "host" not in name and not name.startswith("obs.") and name != "setup_s"


class BenchmarkSelfTest(unittest.TestCase):
    def test_quick_runs_print_every_metric(self):
        expected = spec()
        for workload in (w["name"] for w in expected["workloads"]):
            for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = cached_quick(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertLessEqual(result["failed"], result["attempted"])
                    metrics = result["metrics"]
                    want = {m["name"]: m["unit"] for m in expected[table]}
                    self.assertEqual(set(metrics), set(want))
                    for name, value in metrics.items():
                        self.assertEqual(value["unit"], want[name], name)
                        self.assertTrue(math.isfinite(value["value"]), name)
                        if trace == "0":
                            self.assertGreater(value["value"], 0, name)

    def test_every_layer_metric_is_measured(self):
        workloads = [w["name"] for w in spec()["workloads"]]
        measured = set()
        for workload in workloads:
            code, result, err = cached_quick(workload, "1")
            self.assertEqual(code, 0, err)
            measured |= {name for name, value in result["metrics"].items() if value["value"] != 0}
        for name in (m["name"] for m in spec()["per_layer"]):
            if name not in ZERO_EVERYWHERE:
                self.assertTrue(name in measured, f"{name} reads 0 on every workload")

    def test_same_seed_same_simulated_values(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    first_code, first, err = cached_quick(workload, trace)
                    self.assertEqual(first_code, 0, err)
                    code, again, err = quick(workload, trace)
                    self.assertEqual(code, 0, err)
                    for name, value in first["metrics"].items():
                        if simulated(name):
                            self.assertEqual(value, again["metrics"][name], name)
                    self.assertEqual((first["attempted"], first["failed"]),
                                     (again["attempted"], again["failed"]))

    def test_bad_arguments_are_refused(self):
        code, out, _ = run("--workload", "no_such_workload")
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


def main():
    global BINARY
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args, rest = parser.parse_known_args()
    if args.binary:
        BINARY = args.binary
    else:
        sys.path.insert(0, HERE)
        import run as bench_run
        BINARY = bench_run.build()
    unittest.main(argv=[sys.argv[0], *rest])


if __name__ == "__main__":
    main()
