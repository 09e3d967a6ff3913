#!/usr/bin/env python3
"""Record one point of the committed benchmark trajectory.

Usage (from anywhere inside a checkout):

    python3 tools/bench_trajectory.py --number N

Runs `python3 perfbench/run.py` once per workload declared in
BENCHMARK.json, untraced, at its default seed 1 and 15 s, one workload
after another, and writes BENCH_<N>.json at the root of the checkout. The
file holds each workload's final JSON line (the program's `{"correct",
"attempted", "failed", "metrics"}` result), the seed and seconds, the
`git rev-parse HEAD` of the checkout, and the CPU the numbers were
measured on. Every point of the trajectory uses the same seed and length,
so the points compare.

Exit status: 0 when every workload ran and printed a JSON result, 1 when a
workload failed to build, run or print one (nothing is written then).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench/run.py's defaults, recorded in the output; not passed to it.
SEED = 1
SECONDS = 15


def workload_names() -> list[str]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


def git_head() -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(name: str) -> dict | None:
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", name, "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        print(f"bench_trajectory: {name}: no output (exit {done.returncode})",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        print(f"bench_trajectory: {name}: last line is not JSON: {error}",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"bench_trajectory: {name}: exit {done.returncode}",
              file=sys.stderr)
        return None
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", required=True, type=int,
                        help="change number N of the output BENCH_<N>.json")
    args = parser.parse_args()

    workloads = {}
    for name in workload_names():
        print(f"bench_trajectory: running {name}", file=sys.stderr)
        result = run_workload(name)
        if result is None:
            return 1
        workloads[name] = result

    doc = {
        "number": args.number,
        "git_sha": git_head(),
        "seed": SEED,
        "seconds": SECONDS,
        "trace": 0,
        "host": {"cpu_model": cpu_model(), "cpus": os.cpu_count()},
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench_trajectory: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
