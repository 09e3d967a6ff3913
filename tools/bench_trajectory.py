#!/usr/bin/env python3
"""Record one point of the committed benchmark trajectory.

Usage (from anywhere inside a checkout):

    python3 tools/bench_trajectory.py --number N

Runs `python3 perfbench/run.py` once per workload declared in
BENCHMARK.json, untraced, at its default seed 1 and 15 s, one workload
after another, and writes BENCH_<N>.json at the root of the checkout. The
file holds each workload's final JSON line (the program's `{"correct",
"attempted", "failed", "metrics"}` result) with the guest steal ticks
read from /proc/stat around that run added as `steal_ticks`, the seed and
seconds, the `git rev-parse HEAD` of the checkout, and the CPU the
numbers were measured on. Every point of the trajectory uses the same
seed and length, so the points compare; steal ticks show which points a
busy host slowed.

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


def steal_ticks() -> int | None:
    """The host's guest steal time so far, in USER_HZ ticks over all CPUs
    (the eighth field of /proc/stat's `cpu` line); None where unreadable."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def run_workload(name: str, root: str = ROOT, extra: tuple[str, ...] = (),
                 quiet: bool = False) -> dict | None:
    """Runs `perfbench/run.py` of the checkout at `root` untraced; returns
    its JSON result plus the steal ticks of the run, or None on failure.
    `quiet` holds back the run's stderr unless the run fails."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", name, "--trace", "0", *extra]
    before = steal_ticks()
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if quiet else None,
                          text=True, check=False)
    after = steal_ticks()
    if quiet and done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
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
    result["steal_ticks"] = (after - before
                             if before is not None and after is not None
                             else None)
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
