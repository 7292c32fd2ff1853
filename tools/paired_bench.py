"""Paired benchmark of two revisions on each workload.

    python3 tools/paired_bench.py PARENT CHANGE [--workload W ...] --pairs N --seed S

Run from inside the git checkout.  Both revisions (any commit-ish git names,
such as HEAD~1, a branch or the hash `git stash create` prints for the work
tree) are exported with `git archive` into one temporary directory, which is
removed at the end.  --workload may be given more than once; without it, every
workload the parent's BENCHMARK.json declares is run, in its order.  For each
workload W, pair i runs `perfbench/run.py --workload W --seed S+i --seconds 4
--trace 0` in each export, the parent first in even pairs and the change first
in odd ones, so a drift of the host's speed does not favour one side.  One
table a workload gives, for each end-to-end metric that BENCHMARK.json
declares, both medians, the parent's quartiles, the pairs in which the change
was better and the change of the median relative to the parent's.  A change
worse than the metric's `bound`, read as a fraction of the parent's median, is
flagged WORSE, and the tool exits 1 if any metric of any workload is flagged.
A metric not flagged WORSE whose parent runs spread wider than its bound, (q3 -
q1) / median, is labelled UNRESOLVED unless every change run reads better than
every parent run: the pairs cannot tell it from unchanged.  The label alone
does not change the exit code.  Before the tables, one line gives the lines of
the Python files under src/ in each export.
Nothing is written into the checkout; stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def export(rev: str, dest: str) -> None:
    """The tree of rev, extracted into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def src_lines(tree: str) -> int:
    """The newlines in the .py files under tree/src, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree, "src").rglob("*.py"))


def bench(tree: str, workload: str, seed: int) -> dict:
    """metric name -> value of one perfbench run in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "4", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def paired(trees: dict, declared: list, workload: str, args) -> int:
    """Run the pairs of one workload, print its table; the count of metrics flagged."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench(trees[side], workload, args.seed + i))
        print(f"# {workload} pair {i + 1}/{args.pairs} (seed {args.seed + i}): " + ", ".join(
            f"{side} run_s {runs[side][-1]['run_s']:.4f}" for side in runs), flush=True)

    print(f"{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.parent} -> {args.change}")
    print(f"{'metric':<12} {'parent':>10} {'change':>10} {'parent q1-q3':>21} {'better':>7} "
          f"{'median':>8}")
    flagged = 0
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        if before == 0.0:  # no scale to read the bound against: any move is infinite
            relative = math.copysign(math.inf, after) if after else 0.0
        else:
            relative = (after - before) / abs(before)
        worse = sign * relative > metric["bound"]
        flagged += worse
        if before == 0.0:
            spread = math.inf if q3 > q1 else 0.0
        else:
            spread = (q3 - q1) / abs(before)
        all_better = max(sign * c for c in change) < min(sign * p for p in parent)
        unresolved = not worse and spread > metric["bound"] and not all_better
        print(f"{name:<12} {before:>10.4f} {after:>10.4f} {q1:>10.4f}-{q3:<10.4f} "
              f"{wins:>3}/{args.pairs} {relative:>+8.1%}"
              + (f"  WORSE than the bound {metric['bound']:.0%}" if worse else "")
              + (f"  UNRESOLVED: the parent's spread {spread:.1%} is wider than the bound "
                 f"{metric['bound']:.0%}" if unresolved else ""))
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeatable (default: every declared one)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as root:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(root, side)
            export(getattr(args, side), trees[side])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src/: {args.parent} {lines['parent']:,} lines -> {args.change} "
              f"{lines['change']:,} lines ({lines['change'] - lines['parent']:+,})")
        with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as handle:
            benchmark = json.load(handle)
        workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
        flagged = sum(paired(trees, benchmark["end_to_end"], w, args) for w in workloads)
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
