"""The three benchmark workloads and their correctness checks.

Each workload generates its input from the seed, runs one operation group
per :meth:`run` call (a whole stream, one command, one federation), checks
the result against the offline SVD of the pooled input, and states the call
counts its shapes imply, which the tracer self-check compares with what the
trace recorded. Library functions are always looked up through their module
at call time, so installed tracer wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from fedpca import datasets, edge, federation, linalg, privacy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A command that takes longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 150


@dataclass
class Pass:
    """Outcome of one operation group."""

    wall_s: float = 0.0
    start: float = 0.0  # perf_counter at the start of the timed interval
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # seconds per update
    energy: Optional[float] = None
    problems: list = field(default_factory=list)
    accounting: Optional[dict] = None  # traced passes only
    peak_bytes: Optional[int] = None  # memory passes only

    def fail(self, problem: str) -> None:
        """Record a problem; each attempted operation fails at most once."""
        self.failed = min(self.failed + 1, max(self.attempted, 1))
        self.problems.append(problem)


@dataclass(frozen=True)
class Reference:
    """Offline SVD of the pooled input: the oracle every output is held to."""

    values: np.ndarray  # all singular values, descending
    best: float  # ||U_r^T Y||_F^2 = sum of the r largest squared values
    total: float  # ||Y||_F^2

    @classmethod
    def of(cls, y: np.ndarray, r: int) -> "Reference":
        s = np.linalg.svd(y, compute_uv=False)
        return cls(s, float(np.sum(s[:r] ** 2)), float(np.sum(y * y)))


def check_estimate(ref: Reference, values, *, energy: float, floor: float,
                   folds: int, basis=None, exact: bool) -> list[str]:
    """Problems with one final estimate; an empty list means it passed.

    exact: no privacy, so each value may not exceed its offline counterpart
    by more than roundoff, taken as 64 eps per fold relative to s_1.
    """
    problems = []
    values = np.asarray(values, dtype=np.float64)
    if basis is not None:
        dev = float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
        if dev > linalg.ORTHO_TOL * basis.shape[0]:
            problems.append(f"basis not orthonormal (deviation {dev:.3e})")
    if values.size == 0 or np.any(np.diff(values) > 0):
        problems.append("values empty or increasing")
    if exact and values.size:
        slack = 64 * np.finfo(np.float64).eps * folds * ref.values[0]
        excess = values - ref.values[: values.size]
        if np.any(excess > slack):
            problems.append(f"value above offline counterpart by {np.max(excess):.3e}")
    if not energy >= floor:
        problems.append(f"energy_captured {energy:.5f} below floor {floor}")
    if energy > 1.0 + 1e-9:
        problems.append(f"energy_captured {energy:.12f} beats the offline optimum")
    return problems


class InProcess:
    """A workload whose operations run inside the benchmark's own process."""

    def memory(self) -> Pass:
        """One pass with its peak traced allocation above the post-input baseline.

        :meth:`run` reads the peak as the library returns, so the correctness
        check that follows (its own r x n temporaries) is not counted.
        """
        tracemalloc.start()
        try:
            return self.run()
        finally:
            tracemalloc.stop()


def _library_peak(res: Pass) -> None:
    """Record the traced peak so far, when tracemalloc is on (memory passes)."""
    if tracemalloc.is_tracing():
        res.peak_bytes = tracemalloc.get_traced_memory()[1]


class EdgeStream(InProcess):
    """One non-private EdgeClient fed whole batches through process_batch."""

    def __init__(self, spec: dict, seed: int, scratch: Path):
        sh = spec["shapes"]
        self.d, self.r, self.b, self.n, self.alpha = sh["d"], sh["r"], sh["b"], sh["n"], sh["alpha"]
        self.floor = spec["energy_floor"]
        self.seed = seed
        self.bound_elems = 2 * self.d * (self.r + self.b)

    def setup(self) -> None:
        self.y = datasets.synth_gaussian_cov(self.d, self.n, self.alpha, self.seed)
        self.client = edge.EdgeClient(self.d, self.r, batch_size=self.b)

    def reference(self) -> None:
        self.ref = Reference.of(self.y, self.r)

    def run(self, tracer=None) -> Pass:
        client = self.client or edge.EdgeClient(self.d, self.r, batch_size=self.b)
        self.client = None
        res = Pass()
        root = tracer.open("bench.pass") if tracer else None
        start = time.perf_counter()
        for lo in range(0, self.n, self.b):
            res.attempted += 1
            t = time.perf_counter()
            try:
                client.process_batch(self.y[:, lo : lo + self.b])
            except Exception as exc:  # a raised update is a failed operation
                res.fail(f"process_batch raised {exc!r}")
                break
            res.latencies.append(time.perf_counter() - t)
        res.wall_s = time.perf_counter() - start
        _library_peak(res)
        if root:
            tracer.close(root)
        if not res.failed:
            est = client.estimate
            res.energy = float(np.sum((est.basis.T @ self.y) ** 2)) / self.ref.best
            for problem in check_estimate(self.ref, est.values, energy=res.energy,
                                          floor=self.floor, folds=res.attempted,
                                          basis=est.basis, exact=True):
                res.fail(problem)
        return res

    def expected_counts(self) -> dict:
        batches = math.ceil(self.n / self.b)
        return {
            "edge.process_batch.calls": batches,
            "linalg.subspace_of.calls": batches,
            "linalg.truncated_svd.calls": batches,
            "linalg.merge.calls": batches - 1,  # the first batch seeds the estimate
            "edge.observe.calls": 0,
            "privacy.cov_slab.count": 0,
        }


class EdgeCli:
    """``fedpca run-edge`` as a subprocess, checked through its output files."""

    def __init__(self, spec: dict, seed: int, scratch: Path):
        sh = spec["shapes"]
        self.d, self.r, self.b, self.n, self.alpha = sh["d"], sh["r"], sh["b"], sh["n"], sh["alpha"]
        self.floor = spec["energy_floor"]
        self.seed = seed
        self.bound_elems = 2 * self.d * (self.r + self.b)
        self.scratch = scratch
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def setup(self) -> None:
        # The command generates its own input from --seed; this is the same
        # matrix, regenerated here as the oracle's input.
        self.y = datasets.synth_gaussian_cov(self.d, self.n, self.alpha, self.seed)

    def reference(self) -> None:
        self.ref = Reference.of(self.y, self.r)

    def _args(self, out: Path) -> list[str]:
        return ["run-edge", "--generator", "gauss", "--d", str(self.d), "--n", str(self.n),
                "--alpha", repr(self.alpha), "--rank", str(self.r), "--batch", str(self.b),
                "--no-dp", "--seed", str(self.seed), "--out", str(out)]

    def _command(self, probe: Optional[str]) -> tuple[Pass, Optional[dict]]:
        """Run the command once in a fresh directory, with cli_probe.py when probing."""
        tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        out, result = tmp / "run", tmp / "probe.json"
        if probe is None:
            argv = [sys.executable, "-m", "fedpca.cli", *self._args(out)]
        else:
            argv = [sys.executable, str(HERE / "cli_probe.py"), probe, str(result),
                    *self._args(out)]
        res = Pass(attempted=1)
        try:
            res.start = time.perf_counter()
            try:
                proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            res.wall_s = time.perf_counter() - res.start
            if proc is None:
                res.fail(f"command timed out after {CLI_TIMEOUT_S} s")
                return res, None
            if proc.returncode != 0:
                res.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                return res, None
            try:
                self._check_outputs(out, res)
                return res, json.loads(result.read_text(encoding="utf-8")) if probe else None
            except (OSError, ValueError, KeyError) as exc:
                res.fail(f"unreadable command output: {exc!r}")
                return res, None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _check_outputs(self, out: Path, res: Pass) -> None:
        blocks = math.ceil(self.n / self.b)
        by = defaultdict(list)
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                by[row["metric"]].append(row)
        expected = {"rank": blocks, "reconstruction_error": blocks,
                    "log_reconstruction_error": blocks, "energy_ratio": blocks,
                    "global_value": self.r}
        for metric in sorted(set(expected) | set(by)):
            if len(by[metric]) != expected.get(metric, 0):
                res.fail(f"metrics.csv has {len(by[metric])} {metric} rows, "
                         f"expected {expected.get(metric, 0)}")
        with open(out / "timings.csv", newline="", encoding="utf-8") as fh:
            timings = list(csv.DictReader(fh))
        res.latencies = [float(t["value"]) for t in timings if t["t"] != ""]
        if len(res.latencies) != blocks or len(timings) != blocks + 1:
            res.fail(f"timings.csv has {len(timings)} rows, expected {blocks + 1}")
        if res.failed:
            return
        last = max(by["reconstruction_error"], key=lambda row: int(row["t"]))
        ordered = sorted(by["global_value"], key=lambda row: int(row["t"]))
        values = [float(row["value"]) for row in ordered]
        # reconstruction_error = (||Y||^2 - ||U^T Y||^2) / n over the whole stream;
        # the command checks U is orthonormal before it computes it.
        res.energy = (self.ref.total - self.n * float(last["value"])) / self.ref.best
        for problem in check_estimate(self.ref, values, energy=res.energy, floor=self.floor,
                                      folds=blocks, exact=True):
            res.fail(problem)

    def run(self, tracer=None) -> Pass:
        res, probe = self._command("trace" if tracer else None)
        if tracer and probe is not None:
            root = tracer.root("bench.pass", res.start, res.start + res.wall_s)
            tracer.adopt(probe["spans"], root)
            res.accounting = probe["accounting"]
            for problem in probe["problems"]:
                res.fail(f"tracer in command: {problem}")
        return res

    def memory(self) -> Pass:
        """One command with its peak traced allocation above the post-import baseline."""
        res, probe = self._command("mem")
        if probe is not None:
            res.peak_bytes = probe["peak_bytes"]
        return res

    def expected_counts(self) -> dict:
        blocks = math.ceil(self.n / self.b)
        scanned = sum(min((k + 1) * self.b, self.n) for k in range(blocks))
        return {
            "cli.main.calls": 1,
            "edge.process_batch.calls": blocks,
            "metrics.projection_error.calls": blocks,
            "metrics.projection_error.cols": scanned,
            "metrics.write_csv.calls": 2,  # metrics.csv and timings.csv
            "metrics.rows": 4 * blocks + self.r + blocks + 1,
            "linalg.merge.calls": blocks - 1,
            "edge.observe.calls": 0,
            "privacy.cov_slab.count": 0,
        }


class FedPrivate(InProcess):
    """run_federation over contiguous client shares with the private update."""

    def __init__(self, spec: dict, seed: int, scratch: Path):
        sh = spec["shapes"]
        self.d, self.r, self.b = sh["d"], sh["r"], sh["b"]
        self.clients, self.fanout, self.alpha = sh["clients"], sh["fanout"], sh["alpha"]
        self.n = sh["clients"] * sh["per_client"]
        self.dp = privacy.DpConfig(sh["epsilon"], sh["delta"])
        self.floor = spec["energy_floor"]
        self.seed = seed
        self.c = min(self.d, 64)  # EdgeClient's default covariance slab width
        self.bound_elems = 2 * self.d * (self.b + self.c)

    def setup(self) -> None:
        y = datasets.synth_gaussian_cov(self.d, self.n, self.alpha, self.seed)
        # Unit-sphere columns, pulled in by 1e-12 so that every norm stays
        # <= 1 however it is summed: the (epsilon, delta) calibration assumes
        # the unit ball, and a clip-or-reject step must leave this input alone.
        y = y / (np.linalg.norm(y, axis=0) * (1.0 + 1e-12))
        if not np.all(np.linalg.norm(y, axis=0) <= 1.0):
            raise RuntimeError("fed-private generator produced a column outside the unit ball")
        self.y = y
        self.streams = datasets.partition_columns(self.n, self.clients, "contiguous").split(y)
        self.tree = federation.build_tree(self.clients, self.fanout)
        self.cfg = federation.FederationConfig(rank=self.r, batch_size=self.b, dp=self.dp,
                                               seed=self.seed)

    def reference(self) -> None:
        self.ref = Reference.of(self.y, self.r)

    @contextlib.contextmanager
    def _batch_timer(self, latencies: list):
        """Time each EdgeClient.process_batch call, the per-client update.

        The only hook in untraced runs: two clock reads per batch of b columns.
        """
        original = edge.EdgeClient.process_batch

        def timed(client, batch):
            t = time.perf_counter()
            try:
                return original(client, batch)
            finally:
                latencies.append(time.perf_counter() - t)

        edge.EdgeClient.process_batch = timed
        try:
            yield
        finally:
            edge.EdgeClient.process_batch = original

    def run(self, tracer=None) -> Pass:
        res = Pass(attempted=1)
        timer = self._batch_timer(res.latencies) if tracer is None else contextlib.nullcontext()
        with timer:
            root = tracer.open("bench.pass") if tracer else None
            start = time.perf_counter()
            try:
                out = federation.run_federation(self.streams, self.tree, self.cfg)
            except Exception as exc:  # a raised federation is a failed operation
                res.fail(f"run_federation raised {exc!r}")
                out = None
            res.wall_s = time.perf_counter() - start
            _library_peak(res)
            if root:
                tracer.close(root)
        if out is not None:
            est = out.estimate
            res.energy = float(np.sum((est.basis.T @ self.y) ** 2)) / self.ref.best
            # Private values live in the masked covariance domain, so they are
            # not compared with the offline singular values.
            for problem in check_estimate(self.ref, est.values, energy=res.energy,
                                          floor=self.floor, folds=self.clients,
                                          basis=est.basis, exact=False):
                res.fail(problem)
        return res

    def expected_counts(self) -> dict:
        batches = sum(math.ceil(s.shape[1] / self.b) for s in self.streams)
        slabs = batches * math.ceil(self.d / self.c)
        internal = [node for node in self.tree.nodes if not node.is_leaf]
        return {
            "federation.run_federation.calls": 1,
            "edge.observe.calls": self.n,
            "edge.process_batch.calls": batches,
            "edge.ssvd.calls": slabs,
            "privacy.cov_slab.count": slabs,
            "privacy.gaussian_mask.calls": slabs,
            "federation.aggregate_once.calls": len(internal),
            "federation.merges": sum(len(node.children) - 1 for node in internal),
            "metrics.projection_error.calls": 0,
        }


WORKLOADS = {"edge-stream": EdgeStream, "edge-cli": EdgeCli, "fed-private": FedPrivate}
