"""Seeded benchmark of fedpca: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {edge-stream,edge-cli,fed-private} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory. Load is one
process, serial and closed-loop: the next batch, command or federation starts
only after the previous one returns. Each run generates its input from the
seed and runs one warm-up pass that is not timed, then repeats passes for
``--seconds``; the input is set up again, timed, before every SETUP_EVERY-th
pass. ``update_ms_p50`` is the median over a pass's updates of each update's
best time across the timed passes; ``setup_s`` and ``wall_s`` are medians
over the set-ups and passes; the update tail pools every timed pass, see
:func:`measure`. Every pass is checked against the offline SVD of the pooled
input.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, then notes
such as ``update_ms_tail``; the peak memory comes from the warm-up pass,
run under tracemalloc and read as the library returns, before the
correctness check. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics, each per traced pass (median over passes),
after the tracer self-check: call counts must match the workload's shapes,
every span must lie inside its parent, layer self times plus untraced gaps
must add up to the traced wall time, and no wrapper may stay bound outside
traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. BLAS threading is left as the environment sets
it and reported with the other host facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 4
# A timed set-up runs before every SETUP_EVERY-th timed pass.
SETUP_EVERY = 4
# Rounding slack when self times and gaps are summed back to the wall time.
BALANCE_TOL_S = 1e-6


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_library():
    """Import fedpca from this checkout's src/, or explain why it cannot."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedpca.cli  # noqa: F401  (binds every module the tracer patches)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fedpca from {src}: {exc}") from None
    import fedpca

    where = Path(fedpca.__file__).resolve().parent
    if where != src / "fedpca":
        raise SystemExit(f"perfbench: fedpca was imported from {where}, not {src}")


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _timed_setup(workload) -> float:
    t = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t


def _traced(action):
    """Run ``action(tracer)`` with the tracer installed.

    Returns (result, spans, binding problems, accounting tracker).
    """
    from fedpca import accounting
    from tracer import Tracer

    tracer = Tracer()
    problems = tracer.install()
    try:
        with accounting.track() as acct:
            result = action(tracer)
    finally:
        problems += tracer.uninstall()
    return result, tracer.spans, problems, acct


def _layer_metrics(workload, summary: dict, setup: dict, acct: dict) -> dict:
    g = lambda key, src=summary: src.get(key, 0.0)  # noqa: E731
    out = {}
    for name in ("linalg.subspace_of", "linalg.merge", "linalg.truncated_svd",
                 "edge.process_batch", "edge.observe", "edge.ssvd",
                 "privacy.gaussian_mask", "federation.aggregate_once",
                 "federation.run_federation", "metrics.projection_error",
                 "metrics.write_csv", "cli.main"):
        out[name + ".calls"] = g(name + ".calls")
        out[name + ".s"] = g(name + ".s")
    out["linalg.gflop"] = (g("linalg.truncated_svd.work") + g("linalg.merge.work")) / 1e9
    out["edge.process_batch.self_s"] = g("edge.process_batch.self_s")
    out["privacy.cov_slab.count"] = g("privacy.cov_slab.work")
    out["privacy.cov_slab.s"] = g("privacy.cov_slab.s")
    out["privacy.mask_elems"] = g("privacy.gaussian_mask.work")
    out["federation.tree_s"] = g("federation.aggregate_once.s")
    out["federation.leaf_s"] = g("federation.run_federation.s") - out["federation.tree_s"]
    out["federation.merges"] = g("federation.merges")
    out["metrics.projection_error.cols"] = g("metrics.projection_error.work")
    out["metrics.rows"] = g("metrics.write_csv.work")
    out["datasets.generate_s"] = g("datasets.generate.s", setup)
    out["datasets.partition_s"] = g("datasets.partition.s", setup)
    out["accounting.note_events"] = float(acct["events"])
    out["accounting.peak_elems"] = float(acct["peak_elems"])
    out["accounting.peak_vs_bound"] = acct["peak_elems"] / workload.bound_elems
    out["cli.self_s"] = g("cli.main.self_s")
    out["trace.gap_s"] = g("gap_s")
    return out


def measure(workload, seconds: float, trace: bool) -> dict:
    from tracer import summarize, wrapped_bindings

    passes, problems, notes = [], [], {}
    if trace:
        def traced_setup(tracer):
            root = tracer.open("bench.setup")
            workload.setup()
            tracer.close(root)

        _, spans, bind, _ = _traced(traced_setup)
        problems += [f"tracer (setup): {p}" for p in bind]
        setup_summary = summarize(spans)
        setup_times = [setup_summary["wall_s"]]
    else:
        setup_times = [_timed_setup(workload)]
    t = time.perf_counter()
    workload.reference()
    notes["reference_s"] = time.perf_counter() - t
    # Warm-up, checked but not timed; without tracing it is the memory pass.
    mem = workload.run() if trace else workload.memory()
    passes.append(mem)

    timed, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_PASSES:
        leftover = wrapped_bindings()
        if leftover:
            problems.append(f"tracer wrappers bound in an untraced pass: {leftover}")
        if not trace and len(timed) % SETUP_EVERY == SETUP_EVERY - 1:
            # Set-ups are repeated across the whole run, so that setup_s sees
            # the same host speed phases as the passes.
            setup_times.append(_timed_setup(workload))
        timed.append(workload.run())
        if trace:
            res, spans, bind, acct = _traced(workload.run)
            for p in bind:
                res.fail(f"tracer: {p}")
            acct = res.accounting or {"events": acct.total_events, "peak_elems": acct.max_elements}
            summary = summarize(spans)
            layers = _layer_metrics(workload, summary, setup_summary, acct)
            for key, want in workload.expected_counts().items():
                if layers[key] != want:
                    res.fail(f"self-check: {key} = {layers[key]}, expected {want}")
            if summary.get("misnested"):
                res.fail(f"self-check: {summary['misnested']:.0f} spans outside their parent")
            if summary["balance_err_s"] > BALANCE_TOL_S:
                res.fail(f"self-check: self times + gaps miss wall by "
                         f"{summary['balance_err_s']:.3e} s")
            traced.append((res, layers))
    passes += timed + [res for res, _ in traced]

    wall = statistics.median(p.wall_s for p in timed)
    metrics = {"setup_s": statistics.median(setup_times)}
    if trace:
        layers = {key: statistics.median(lay[key] for _, lay in traced) for key in traced[0][1]}
        traced_wall = statistics.median(res.wall_s for res, _ in traced)
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        metrics.update(layers)
    else:
        # On a shared 2-vCPU host, CPU speed drops by up to half in phases of
        # about a second to minutes. Whole-pass times (wall_s, cols_per_s)
        # then spread by 0.12-0.35 over ten seeds, too near or above the
        # largest bound a metric may have, so they are printed but not in
        # BENCHMARK.json. An update takes milliseconds and meets a fast phase
        # in some pass, so its best time over the passes is steady;
        # update_ms_p50 is the median of these best times.
        updates = statistics.mode(len(p.latencies) for p in timed)
        runs = [p.latencies for p in timed if len(p.latencies) == updates]
        best = [min(times) for times in zip(*runs)] or [0.0]
        # The tail pools every timed pass: the highest percentile with ten
        # samples beyond it.
        tail = sorted(x for p in timed for x in p.latencies) or [0.0]
        tail_at = max(len(tail) - 11, 0)
        energies = [p.energy for p in timed if p.energy is not None] or [0.0]
        metrics.update({
            "wall_s": wall,
            "cols_per_s": workload.n / wall,
            "update_ms_p50": 1e3 * statistics.median(best),
            "update_ms_tail": 1e3 * tail[tail_at],
            "energy_captured": statistics.median(energies),
            "peak_mem_mib": (mem.peak_bytes or 0) / 2**20,
        })
        notes["update_ms_p50"] = f"best of {len(runs)} passes for each of {updates} updates"
        for key, unit in (("wall_s", "s"), ("cols_per_s", "cols/s")):
            notes[key] = f"{metrics[key]:.6g} {unit}, median of {len(timed)} passes"
        notes["update_ms_tail"] = (f"{metrics['update_ms_tail']:.6g} ms, "
                                   f"p{100.0 * (tail_at + 1) / len(tail):.4g} of {len(tail)} "
                                   f"samples, {len(tail) - 1 - tail_at} beyond it")
    notes["timed_passes"] = len(timed)
    notes["setup_repeats"] = len(setup_times)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(problems)
    problems += [p for res in passes for p in res.problems]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes}


def main(argv=None) -> int:
    args = _parse(argv)
    _load_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS or args.workload not in specs:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](specs[args.workload], args.seed, scratch)
        out = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"shapes {json.dumps(specs[args.workload]['shapes'])}")
    print(f"host {json.dumps(host_facts())}")
    for m in wanted:
        print(f"  {m['name']:<34} {out['metrics'][m['name']]:.6g} {m['unit']}")
    for key, value in out["notes"].items():
        print(f"  note {key}: {value}")
    print(f"  failed_frac {out['failed']}/{out['attempted']} = "
          f"{out['failed'] / out['attempted']:.6g}")
    for problem in out["problems"][:20]:
        print(f"  problem: {problem}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
