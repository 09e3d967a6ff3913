#!/usr/bin/env python3
"""Compare two revisions on the end-to-end benchmark with alternating pairs.

Usage (from anywhere inside a checkout):

    python3 tools/bench_pairs.py BASE HEAD [--workload NAME ...]
        [--pairs 10] [--seed 1] [--seconds 15] [--steal-pct 1.0]
        [--work-dir DIR] [--json OUT]

BASE and HEAD are any git revisions of this repository. Each is exported
with `git archive` into its own directory under --work-dir (a fresh
temporary directory by default), so uncommitted files never enter a tree.
One discarded warm-up run per tree builds its perfbench program. Then, per
workload, the script runs `perfbench/run.py` untraced N times in each tree,
alternating BASE/HEAD and HEAD/BASE from pair to pair so that a slow drift
of the host favours neither side. Guest steal ticks (/proc/stat, all CPUs)
are read around every run; a run's steal share is those ticks over the
CPU ticks of its wall time.

For every metric both trees report it prints the median and interquartile
range (IQR) of each side, the median change, and in how many pairs HEAD
was better, in the direction BENCHMARK.json declares ("equal" when every
run of both trees gave the same value). Each end-to-end metric also gets a
no-regression verdict against its BENCHMARK.json bound:

    worse       the HEAD median is worse than the BASE median by more than
                the bound (relative to the BASE median);
    unresolved  the BASE IQR over the BASE median exceeds the bound, and
                not every HEAD run beats every BASE run;
    ok          otherwise.

The table is printed twice: over all pairs, and over the pairs in which
neither run lost more than --steal-pct percent of its CPU time to steal.

Exit status: 0 when every run was correct, 1 when any run failed or was
not correct (its numbers are still printed), 2 on bad arguments or a
revision that cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_trajectory import ROOT, run_workload  # noqa: E402


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def export_tree(rev: str, path: str) -> bool:
    """Writes the files of `rev` into `path` with git archive."""
    os.makedirs(path, exist_ok=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, stdout=subprocess.PIPE, check=False)
    if archive.returncode != 0:
        return False
    untar = subprocess.run(["tar", "-x", "-C", path], input=archive.stdout,
                           check=False)
    return untar.returncode == 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str,
            bound: float) -> str:
    """The no-regression verdict of one end-to-end metric (see the module
    docstring). `bound` is relative to the BASE median."""
    b1, b2, b3 = quartiles(base)
    h2 = quartiles(head)[1]
    sign = 1.0 if better == "lower" else -1.0
    # Relative to the BASE median; where that is zero, any worsening, and
    # any spread, exceeds every bound.
    def relative(delta: float) -> float:
        if b2 != 0:
            return delta / abs(b2)
        return math.inf if delta > 0 else 0.0

    if relative(sign * (h2 - b2)) > bound:
        return "worse"
    spread = relative(b3 - b1)
    head_beats_all = (max(head) < min(base) if better == "lower"
                      else min(head) > max(base))
    if spread > bound and not head_beats_all:
        return "unresolved"
    return "ok"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> list[str]:
    """One line per metric over `pairs` (each {"base": result, "head":
    result}); HEAD wins a pair when its value is strictly better. Metrics
    with a bound (the end-to-end ones) end with their verdict."""
    if not pairs:
        return ["  (no pairs)"]
    names = sorted(set(pairs[0]["base"]["metrics"]) &
                   set(pairs[0]["head"]["metrics"]))
    lines = [f"  {'metric':<22}{'base median':>14}{'base IQR':>12}"
             f"{'head median':>14}{'head IQR':>12}{'change':>9}  "
             f"{'wins':<7}verdict"]
    for name in names:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        change = (h2 - b2) / b2 * 100.0 if b2 != 0 else 0.0
        direction = better.get(name)
        if len(set(base + head)) == 1:
            wins = "equal"
        elif direction == "lower":
            wins = f"{sum(h < b for b, h in zip(base, head))}/{len(pairs)}"
        elif direction == "higher":
            wins = f"{sum(h > b for b, h in zip(base, head))}/{len(pairs)}"
        else:
            wins = "-"
        judged = (verdict(base, head, direction, bounds[name])
                  if name in bounds else "-")
        lines.append(f"  {name:<22}{b2:>14.6g}{b3 - b1:>12.3g}"
                     f"{h2:>14.6g}{h3 - h1:>12.3g}{change:>+8.1f}%  "
                     f"{wins:<7}{judged}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("head", help="the revision under test")
    parser.add_argument("--workload", action="append",
                        help="a BENCHMARK.json workload (repeatable; "
                             "default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--steal-pct", type=float, default=1.0,
                        help="drop a pair from the second table when one "
                             "of its runs lost more than this percent of "
                             "its CPU time to steal")
    parser.add_argument("--work-dir",
                        help="where the two trees go (default: a new "
                             "temporary directory)")
    parser.add_argument("--json", help="also write every run here")
    args = parser.parse_args()

    spec = benchmark_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            print(f"bench_pairs: unknown workload {name!r}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("bench_pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    work = args.work_dir or tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {"base": os.path.join(work, "base"),
             "head": os.path.join(work, "head")}
    for side, rev in (("base", args.base), ("head", args.head)):
        if not export_tree(rev, trees[side]):
            print(f"bench_pairs: cannot export {rev!r}", file=sys.stderr)
            return 2
    extra = ("--seed", str(args.seed), "--seconds", str(args.seconds))
    cpu_ticks_per_s = (os.cpu_count() or 1) * os.sysconf("SC_CLK_TCK")

    def run(name: str, side: str) -> dict | None:
        start = time.monotonic()
        result = run_workload(name, trees[side], extra, quiet=True)
        if result is not None and result["steal_ticks"] is not None:
            wall = time.monotonic() - start
            result["steal_pct"] = (100.0 * result["steal_ticks"] /
                                   (wall * cpu_ticks_per_s))
        return result

    for side in ("base", "head"):
        print(f"bench_pairs: building {side} ({trees[side]})",
              file=sys.stderr)
        if run_workload(workloads[0], trees[side],
                        ("--seed", str(args.seed), "--seconds", "1"),
                        quiet=True) is None:
            print(f"bench_pairs: {side} failed its warm-up run",
                  file=sys.stderr)
            return 1

    ok = True
    record = {"base": args.base, "head": args.head, "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    for name in workloads:
        pairs = []
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            pair = {}
            for side in order:
                result = run(name, side)
                if result is None or not result.get("correct", False):
                    print(f"bench_pairs: {name} pair {k + 1}: {side} run "
                          "failed or was not correct", file=sys.stderr)
                    ok = False
                pair[side] = result
            if pair["base"] is None or pair["head"] is None:
                continue
            pairs.append(pair)
            runs = " ".join(
                f"{side} {pair[side]['metrics']['run_s']['value']:.4f} s "
                f"(steal {pair[side].get('steal_pct', -1.0):.2f}%)"
                for side in ("base", "head"))
            print(f"bench_pairs: {name} pair {k + 1}/{args.pairs}: {runs}",
                  file=sys.stderr)
        record["workloads"][name] = pairs

        def calm_run(result: dict) -> bool:
            return result.get("steal_pct", float("inf")) <= args.steal_pct

        calm = [p for p in pairs
                if calm_run(p["base"]) and calm_run(p["head"])]
        print(f"\n{name}: {args.base} -> {args.head}, seed {args.seed}, "
              f"{args.seconds} s, {len(pairs)} pairs")
        print("\n".join(summarize(pairs, better, bounds)))
        print(f"{name}: the {len(calm)} pairs with at most "
              f"{args.steal_pct}% steal per run")
        print("\n".join(summarize(calm, better, bounds)))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
