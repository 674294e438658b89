#!/usr/bin/env python3
"""Paired benchmark of two checkouts: alternating linkbench runs, one JSON.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH.json
        --seconds S [--pairs 10] [--seed 51] [--workload NAME ...]

Both DIRs are source checkouts holding `linkbench/run.py`; make the parent
one with `git clone` or `git archive` of the commit to compare against. For
every workload in the change checkout's `BENCHMARK.json` (or each
--workload), pair i runs the benchmark once in each checkout at seed
`--seed + i`, the parent first in even pairs and the change first in odd
ones, so a drift in the host's speed falls on both sides alike. Then each
side gets one run with --trace 1, at seed `--seed`, for the per-layer
metrics.

The output holds, per workload and end-to-end metric, the median and
quartiles of each side, the pairs the change won (by the metric's
"better" direction), whether every run was correct with no failed
operation, the per-layer metrics of each side's traced run, the
machine (core count and the Python and numpy versions) and, per side,
`commits` (see `commit_of`) and `src_lines`: the line count of
`src/shuttervlc/*.py`. Runs go one at a time.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_linkbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One benchmark run; its last line of output, parsed."""
    cmd = [sys.executable, "linkbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def commit_of(checkout: Path) -> str:
    """HEAD of a checkout that is a git repository of its own, with "+dirty"
    if tracked files differ. Any other checkout (a `git archive` extracted
    anywhere, even inside another repository) is named by "src-sha256:" and
    the sha256 of `src/shuttervlc/*.py` concatenated in sorted order."""
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=checkout,
                              capture_output=True, text=True)
    top, head = git("rev-parse", "--show-toplevel"), git("rev-parse", "HEAD")
    if (top.returncode == head.returncode == 0
            and Path(top.stdout.strip()).resolve() == checkout.resolve()):
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout
        return head.stdout.strip() + ("+dirty" if dirty.strip() else "")
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "shuttervlc").glob("*.py")):
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def src_lines(checkout: Path) -> int:
    """Lines of the package's Python source in a checkout."""
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "shuttervlc").glob("*.py"))


def bench_workload(sides: dict, workload: str, end_to_end: list,
                   args) -> dict:
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run_linkbench(sides[side], workload,
                                            args.seed + i, args.seconds, 0))
            print(f"{workload} pair {i} {side}: "
                  f"{runs[side][-1]['metrics']['run_p50_s']['value']:.4g} s",
                  file=sys.stderr, flush=True)
    traced = {side: run_linkbench(path, workload, args.seed, args.seconds, 1)
              for side, path in sides.items()}
    result = {"end_to_end": {}, "per_layer": {}, "correct": {}, "failed": {}}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in sides}
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * c < sign * p
                  for p, c in zip(values["parent"], values["change"]))
        result["end_to_end"][name] = dict(
            unit=metric["unit"], better=metric["better"], change_won=won,
            pairs=args.pairs, **{side: spread(v) for side, v in values.items()})
    for side in sides:
        everything = runs[side] + [traced[side]]
        result["correct"][side] = all(r["correct"] for r in everything)
        result["failed"][side] = sum(r["failed"] for r in everything)
        result["per_layer"][side] = {
            name: m["value"] for name, m in traced[side]["metrics"].items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=51)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    doc = {
        "machine": {"cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "commits": {side: commit_of(path) for side, path in sides.items()},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "seeds": [args.seed, args.seed + args.pairs - 1]},
        "workloads": {w: bench_workload(sides, w, bench["end_to_end"], args)
                      for w in workloads},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
