"""Run every benchmark workload over fixed seeds and write BENCH_<short-sha>.json.

Usage (from the repository root, on a committed tree):

    python3 tools/bench_trajectory.py [--out DIR]

For each seed from 1 to 10, and for each workload of BENCHMARK.json in
turn, it runs

    python3 perfbench/run.py --workload W --seed S --seconds 6 --trace 0

and reads the run's ``host`` line and its last line, one JSON object. The
file it writes holds, per workload, the median and quartiles of every
end-to-end metric of BENCHMARK.json, and ``correct``, ``failed`` and
``attempted`` of every run; beside them the host facts (CPU count, Python,
numpy, the BLAS build, ``OPENBLAS_NUM_THREADS`` and the thread count
OpenBLAS starts with), the commit, whether the tree had uncommitted
changes, the seeds, ``--seconds`` and the line count of ``src/fedpca``. Three
workloads over ten seeds at 6 s take about 4 minutes on 2 vCPUs.

The rule: a change that touches a hot path commits its own file, made
from the same seeds and ``--seconds`` on the host of the file it compares
against, and quotes its numbers from the two files. The newest file is
the one with the latest ``date``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
SECONDS = 6.0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _openblas_threads():
    """The thread count OpenBLAS starts with in this environment, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    from fedpca import _blas

    return None if _blas._API is None else _blas._API.get_num_threads()


def _run(workload: str, seed: int, seconds: float, root: Path = ROOT) -> tuple[dict, dict]:
    """One untraced run of root's own perfbench: (its host facts, its result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    host = json.loads(next(ln for ln in lines if ln.startswith("host "))[len("host "):])
    return host, json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:  # workloads alternate, so host drift spreads over all of them
        for w in workloads:
            host, result = _run(w, seed, SECONDS)
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "failed": result["failed"], "attempted": result["attempted"],
                            **{m: result["metrics"][m]["value"] for m in metrics}})
            print(f"{w} seed {seed}: correct={result['correct']}", file=sys.stderr)

    commit = _git("rev-parse", "--short", "HEAD")
    src_lines = sum(len(f.read_bytes().splitlines())
                    for f in sorted((ROOT / "src" / "fedpca").glob("*.py")))
    doc = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "src_fedpca_lines": src_lines,
        "host": {**host, "openblas_threads": _openblas_threads()},
        "workloads": {
            w: {"metrics": {m: _summary([r[m] for r in runs[w]]) for m in metrics},
                "runs": runs[w]}
            for w in workloads
        },
    }
    path = args.out / f"BENCH_{commit}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
