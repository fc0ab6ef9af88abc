"""Evaluation metrics and the CSV row sink shared by every command.

All reported numbers flow through MetricLog so output files share one
schema: run_id, t, metric, value, params (a compact JSON object). Metric
names come from a fixed registry; an unregistered name is a programming
error, not a new column.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _check_orthonormal, as_matrix, ensure_matrix

REGISTERED_METRICS = frozenset(
    {
        "rank",
        "level_rank",
        "merge_count",
        "reconstruction_error",
        "log_reconstruction_error",
        "energy_ratio",
        "global_value",
        "noise_omega",
        "batch_width",
        "qa_signed",
        "qa_abs",
        "measured_error",
        "error_bound",
        "within_bound",
        "runtime_s",
    }
)


def residual_rho(y, r: int) -> float:
    """Frobenius norm of what the best rank-r approximation leaves behind.

    sqrt(sum of squared singular values past the r-th); zero once r reaches
    the full rank.
    """
    m = ensure_matrix(y)
    if not 0 <= r <= min(m.shape):
        raise ValueError(f"r={r} outside [0, {min(m.shape)}]")
    s = np.linalg.svd(m, compute_uv=False)
    tail = s[r:]
    return float(np.sqrt(np.sum(tail * tail)))


def projection_error(y, basis) -> float:
    """Mean squared residual per column after projecting onto the basis.

    (||Y||_F^2 - ||U^T Y||_F^2) / n for a column-orthonormal U; the d x d
    projector is never formed. The sums of squares are reduced without a
    d x n temporary; the r x n projection is the only temporary that grows
    with n. Any non-finite entry makes ||Y||_F^2 non-finite, so that one
    check stands in for a scan of every entry.
    """
    m = as_matrix(y, "data")
    u = np.asarray(basis, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != m.shape[0]:
        raise ValueError("basis rows must match the data dimension")
    _check_orthonormal(u)
    total = float(np.einsum("ij,ij->", m, m))
    if not math.isfinite(total):
        raise ValueError("data contains non-finite entries or its squares overflow")
    proj = u.T @ m
    total -= float(np.einsum("ij,ij->", proj, proj))
    return max(total, 0.0) / m.shape[1]


def qa_overlap(v, v_hat, signed: bool = False) -> float:
    """Overlap |<v, v_hat>| between two unit vectors (signed on request)."""
    # C-contiguous copies: BLAS rounds a strided dot product differently
    a = np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
    b = np.ascontiguousarray(v_hat, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError("vectors differ in length")
    for name, vec in (("v", a), ("v_hat", b)):
        if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-8:
            raise ValueError(f"{name} is not unit-norm")
    dot = float(a @ b)
    return dot if signed else abs(dot)


@dataclass(frozen=True)
class MetricRow:
    t: Optional[int]
    metric: str
    value: float
    params: str  # compact JSON object


class MetricLog:
    """Append-only, thread-safe collection of metric rows for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._rows: list[MetricRow] = []
        self._lock = threading.Lock()

    def add(self, metric: str, value: float, t: Optional[int] = None, **params) -> None:
        if metric not in REGISTERED_METRICS:
            raise ValueError(f"unregistered metric {metric!r}")
        val = float(value)
        if not math.isfinite(val):
            raise ValueError(f"non-finite value for metric {metric!r}")
        encoded = json.dumps(params, sort_keys=True, separators=(",", ":"))
        row = MetricRow(t, metric, val, encoded)
        with self._lock:
            self._rows.append(row)

    def rows(self) -> list[MetricRow]:
        with self._lock:
            return list(self._rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "t", "metric", "value", "params"])
            for row in self.rows():
                t_field = "" if row.t is None else str(row.t)
                writer.writerow(
                    [self.run_id, t_field, row.metric, str(row.value), row.params]
                )
