"""Paired benchmark runs: a base commit against the working tree.

    python scripts/bench_pairs.py --base HEAD --workload operators --seed 61 --pairs 10

Run from anywhere inside the repository.  The base commit and the working
tree (tracked files with their uncommitted edits, plus untracked files that
are not ignored) are copied into two directories under one temporary
directory, the base with ``git archive``; it is removed at the end.  Each pair runs
``perfbench/run.py`` once on each side, alternating which side runs first,
with identical arguments and the run length ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric of ``BENCHMARK.json``
the script prints each side's median and quartiles, the relative change of
the medians, the share of pairs the working tree won (ties count for
neither side), and whether that is a gain: at least nine tenths of the
pairs won, and medians further apart than the base's interquartile range.
It also prints the regression verdict with the metric's ``bound`` from
``BENCHMARK.json``: "yes" when the change's median is worse than the
base's by more than the bound (relative to the base's median), "unresolved"
when the base's interquartile range is wider than that, unless every run of
the change beats every run of the base, and "no" otherwise.
With ``--trace`` it then makes one ``perfbench/run.py --trace 1`` run per
side and prints base -> change for every per-layer metric of
``BENCHMARK.json``, which shows in which layers a change gains or loses.
Nothing is written into the repository's own files.

    python scripts/bench_pairs.py --base HEAD --workload operators --trace
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(repo, *args):
    out = subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    )
    return out.stdout


def checkout(repo, rev, dest):
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def checkout_working_tree(repo, dest):
    """The working tree's tracked and untracked, not ignored, files."""
    files = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        src = repo / name
        if src.is_file():  # a tracked file deleted in the working tree is not
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree, workload, seed, seconds, trace=0):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression(base, new, lower, bound):
    """The regression verdict for one metric: "yes" if the change's median
    is worse than the base's by more than ``bound`` times the base's median,
    else "no"; "unresolved" when the base's interquartile range is wider
    than that, unless every run of the change beats every run of the base."""
    qb, qc = quartiles(base), quartiles(new)
    beats_all = min(base) > max(new) if lower else min(new) > max(base)
    if qb[2] - qb[0] > bound * qb[1] and not beats_all:
        return "unresolved"
    worse_by = qc[1] - qb[1] if lower else qb[1] - qc[1]
    return "yes" if worse_by > bound * qb[1] else "no"


def report(workload, seed, metrics, results):
    print(f"\n{workload} (seed {seed}, {len(results)} pairs)")
    print(f"{'metric':<16} {'base q1/median/q3':>28} {'change q1/median/q3':>28}"
          f" {'change':>8} {'won':>7} gain regression")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name]["value"] for r in results]
        new = [r["change"]["metrics"][name]["value"] for r in results]
        wins = sum((b > c) if lower else (c > b) for b, c in zip(base, new))
        qb, qc = quartiles(base), quartiles(new)
        better_by = qb[1] - qc[1] if lower else qc[1] - qb[1]
        gain = wins >= 0.9 * len(results) and better_by > qb[2] - qb[0]
        print(f"{name:<16} {'/'.join(f'{v:.4g}' for v in qb):>28}"
              f" {'/'.join(f'{v:.4g}' for v in qc):>28}"
              f" {qc[1] / qb[1] - 1:>+8.1%} {wins:>3}/{len(results):<3}"
              f" {'yes' if gain else 'no':<4} {regression(base, new, lower, m['bound'])}")
    for side in ("base", "change"):
        runs = [r[side] for r in results]
        print(f"{side}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")


def report_layers(workload, seed, metrics, traced):
    print(f"\n{workload} (seed {seed}, one traced run per side), per round")
    print(f"{'metric':<28} {'base':>12} {'change':>12} {'change':>8}")
    for m in metrics:
        name = m["name"]
        base, new = (traced[side]["metrics"][name]["value"] for side in ("base", "change"))
        rel = f"{new / base - 1:>+8.1%}" if base else f"{'':>8}"
        print(f"{name:<28} {base:>12.5g} {new:>12.5g} {rel}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--seed", type=int, default=61)
    ap.add_argument("--pairs", type=int, default=10, help="at least 10")
    ap.add_argument("--trace", action="store_true",
                    help="then one traced run per side: the per-layer metrics")
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("--pairs must be at least 10: a gain needs nine tenths of ten pairs")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"base": tmp / "base", "change": tmp / "change"}
    try:
        checkout(repo, args.base, trees["base"])
        checkout_working_tree(repo, trees["change"])
        for workload in args.workload:
            results = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed, seconds)
                results.append(pair)
                print(f"# {workload} pair {i + 1}/{args.pairs} ({order[0]} first): "
                      + ", ".join(f"{s} wall_s={pair[s]['metrics']['wall_s']['value']:.3f}"
                                  for s in ("base", "change")), flush=True)
            report(workload, args.seed, metrics, results)
            if args.trace:
                traced = {side: run_once(trees[side], workload, args.seed, seconds, 1)
                          for side in ("base", "change")}
                report_layers(workload, args.seed, bench["per_layer"], traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
