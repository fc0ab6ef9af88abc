"""Alternating A/B runs of the benchmark: a git ref against the working tree.

Usage (from the repository root):

    python3 tools/ab_pairs.py REF --workload W --pairs N --seconds S

It checks REF out into a temporary ``git worktree``. Pair i (seed 11 + i)
runs each side's own ``perfbench/run.py --workload W --seed 11+i
--seconds S --trace 0``: REF's from the worktree, the change's from this
checkout, uncommitted edits included. REF runs first in even pairs and the
change in odd ones, so drift of the host falls on both sides alike. Seeds
start at 11 because ``tools/bench_trajectory.py`` uses 1 to 10.

It prints every pair's end-to-end metrics as it goes, then, for each
end-to-end metric of BENCHMARK.json, both sides' medians and quartiles,
the change's median over REF's, the pairs the change won, tied and lost,
and a verdict:

- ``unresolved`` when REF's interquartile range, over its median, exceeds
  the metric's bound, unless every run of the change reads better than
  every run of REF;
- ``worse`` when the change's median is worse than REF's by more than the
  bound, relative to REF's median;
- ``within bound`` otherwise.

The worktree is removed however the runs end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_trajectory import ROOT, _git, _run, _summary

FIRST_SEED = 11


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric, from pairs of runs in the same order.

    Each run maps a metric's name to its value; each entry of end_to_end
    is a BENCHMARK.json metric, with its name, unit, ``better`` and bound.
    """
    rows = []
    for m in end_to_end:
        p, c = [run[m["name"]] for run in parent], [run[m["name"]] for run in change]
        sign = 1.0 if m["better"] == "lower" else -1.0
        ps, cs = _summary(p), _summary(c)
        wins = sum(sign * b < sign * a for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        worse = sign * (cs["median"] - ps["median"]) / abs(ps["median"])
        spread = (ps["q3"] - ps["q1"]) / abs(ps["median"])
        all_better = max(sign * v for v in c) < min(sign * v for v in p)
        if spread > m["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse > m["bound"] else "within bound"
        rows.append({"name": m["name"], "unit": m["unit"], "parent": ps, "change": cs,
                     "ratio": cs["median"] / ps["median"], "wins": wins, "ties": ties,
                     "losses": len(p) - wins - ties, "verdict": verdict})
    return rows


def _alternate(args, tree: Path, names: list[str]) -> dict:
    runs = {"parent": [], "change": []}
    sides = (("parent", tree), ("change", ROOT))
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        for side, root in sides if i % 2 == 0 else sides[::-1]:
            result = _run(args.workload, seed, args.seconds, root)[1]
            runs[side].append({"correct": result["correct"],
                               **{m: result["metrics"][m]["value"] for m in names}})
        print(f"pair {i + 1} seed {seed} ({sides[i % 2][0]} first):", "  ".join(
            f"{m} {runs['parent'][-1][m]:.6g} | {runs['change'][-1][m]:.6g}" for m in names),
            flush=True)
    return runs


def _quartiles(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="the commit to compare against, such as HEAD~1")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = bench["end_to_end"]
    names = [m["name"] for m in end_to_end]
    sha = _git("rev-parse", "--short", f"{args.ref}^{{commit}}")
    edits = _git("status", "--porcelain", "--untracked-files=no")
    dirty = " with uncommitted edits" if edits else ""
    print(f"workload {args.workload}: parent {sha} against the change "
          f"{_git('rev-parse', '--short', 'HEAD')}{dirty}, {args.pairs} pairs, "
          f"seeds {FIRST_SEED}-{FIRST_SEED + args.pairs - 1}, --seconds {args.seconds:g}; "
          "each value reads parent | change", flush=True)
    tmp = tempfile.mkdtemp(prefix="ab-pairs-")
    tree = Path(tmp) / "ref"
    try:
        _git("worktree", "add", "--detach", str(tree), sha)
        runs = _alternate(args, tree, names)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    for side in ("parent", "change"):
        correct = sum(run["correct"] for run in runs[side])
        print(f"{side}: {correct} of {args.pairs} runs correct")
    print(f"{'metric':<16} {'unit':<6} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'ratio':>7}  won/tied/lost  verdict")
    for row in summarize(runs["parent"], runs["change"], end_to_end):
        parent, change = (_quartiles(row[side]) for side in ("parent", "change"))
        print(f"{row['name']:<16} {row['unit']:<6} {parent:<34} {change:<34} "
              f"{row['ratio']:7.4f}  {row['wins']}/{row['ties']}/{row['losses']}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
