#!/usr/bin/env python3
"""Builds and runs the o1mem benchmark.

    python3 o1bench/run.py --workload <kv_zipf|churn_fom|churn_baseline|serve_open>
                           [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first call configures and builds the
benchmark package in o1bench/ (which compiles the simulator from ../src)
into .bench_build/; later calls rebuild only what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. With
--trace 1 the retained span trees go to .bench_build/spans/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "o1bench")
BINARY = os.path.join(BUILD, "o1bench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"o1bench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(os.path.dirname(BUILD), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
