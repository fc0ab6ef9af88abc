"""The newest committed BENCH_*.json (tools/bench_trajectory.py) against BENCHMARK.json."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_newest_bench_file_covers_the_benchmark():
    files = [json.loads(p.read_text(encoding="utf-8")) for p in ROOT.glob("BENCH_*.json")]
    assert files, "no BENCH_*.json committed"
    newest = max(files, key=lambda doc: doc["date"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in bench["end_to_end"]]
    assert set(newest["workloads"]) == {w["name"] for w in bench["workloads"]}
    for name, workload in newest["workloads"].items():
        for m in metrics:
            q = workload["metrics"][m]
            assert q["q1"] <= q["median"] <= q["q3"], (name, m)
        assert [run["seed"] for run in workload["runs"]] == newest["seeds"]
        for run in workload["runs"]:
            assert run["correct"] and run["failed"] == 0 < run["attempted"], (name, run)
            assert all(m in run for m in metrics)
    for fact in ("nproc", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "openblas_threads"):
        assert fact in newest["host"]
    assert newest["commit"] and newest["seconds"] > 0 and newest["src_fedpca_lines"] > 0
