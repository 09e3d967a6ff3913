#!/usr/bin/env python3
"""Build and run the dlb repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The seed defaults to 1, the pinned seed of the benchmark; --seconds
defaults to BENCHMARK.json's run_seconds (15).

The first run configures and builds this directory (the dlb library from
src/ plus the perfbench program) into .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is the program's JSON result. Generated inputs live in
.bench_build/perfbench-data and are removed when the run ends.

Exit status: the program's (0 = every pass correct), or 1 when the build
fails or the program exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "perfbench-data")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the program; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {' '.join(step)}: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--seconds", default=15, type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    program = build()
    if program is None:
        return 1
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", DATA_DIR]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("run.py: program exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, DATA_DIR), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
