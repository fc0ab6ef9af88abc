"""Synthetic data, CSV ingestion, and stream partitioning.

Samples are columns everywhere inside the package; the CSV loader accepts
either orientation and transposes on the way in. Generation is seeded, and its
bytes are fixed at a given BLAS thread count: each ``fedpca`` command uses one.
One rule puts columns inside the unit ball: divide by :func:`unit_ball_factor`.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, ensure_matrix


# Columns shaped per product in synth_gaussian_cov; each product re-packs the
# d x d shaper, a cost that falls as 1/block. unit_ball_factor checks its
# scaled column norms in blocks of this width.
GENERATE_BLOCK = 1024


class DataError(ValueError):
    """Raised when an input file cannot be parsed into a matrix."""


def _check_synth_args(d: int, n: int, alpha: float) -> None:
    if d < 1 or n < 1:
        raise ValueError(f"shape must be positive, got ({d}, {n})")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")


def _orthogonal(draw: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of a tall draw, signed so that R's diagonal is >= 0."""
    q, r = np.linalg.qr(draw)
    return q * np.where(np.diagonal(r) < 0, -1.0, 1.0)


def synth(d: int, n: int, alpha: float, seed: int) -> np.ndarray:
    """d x n matrix with singular values exactly i**(-alpha).

    Left factors come from the QR of a seeded d x d Gaussian draw, right
    factors from the QR of a seeded Gaussian with min(d, n) columns (the
    economy-size slice of the square draw when n exceeds d).
    """
    _check_synth_args(d, n, alpha)
    rng = np.random.default_rng(seed)
    k = min(d, n)
    left = _orthogonal(rng.standard_normal((d, d)))
    right = _orthogonal(rng.standard_normal((n, k)))
    values = np.arange(1, k + 1, dtype=np.float64) ** (-alpha)
    return (left[:, :k] * values) @ right.T


def synth_gaussian_cov(d: int, n: int, alpha: float, seed: int) -> np.ndarray:
    """n iid samples (columns) from N(0, S diag(i**-alpha) S^T), S orthogonal.

    The standard normal draw z is shaped in place, GENERATE_BLOCK columns at
    a time, so generation holds one d x n array plus a d x block temporary.
    The last block absorbs a remainder narrower than half a block, so no
    block is a sliver. Below 1.5 * GENERATE_BLOCK columns the single block
    is the one-shot product shaper @ z; past that, a column can differ from
    the one-shot product in its last bits where the BLAS picks another
    kernel for a block than for the whole matrix.
    """
    _check_synth_args(d, n, alpha)
    rng = np.random.default_rng(seed)
    basis = _orthogonal(rng.standard_normal((d, d)))
    lam = np.arange(1, d + 1, dtype=np.float64) ** (-alpha)
    shaper = basis * np.sqrt(lam)
    z = rng.standard_normal((d, n))
    lo = 0
    while lo < n:
        hi = n if n - lo < GENERATE_BLOCK + GENERATE_BLOCK // 2 else lo + GENERATE_BLOCK
        z[:, lo:hi] = shaper @ z[:, lo:hi]
        lo = hi
    return z


def load_csv(path, orientation: str = "columns") -> np.ndarray:
    """Parse a numeric CSV into a d x n matrix of column samples.

    orientation "columns" takes the file as the matrix itself (rows are
    features); "rows" means each CSV row is one sample and the result is
    transposed. Lines end in \\n, \\r\\n or \\r; cells may be quoted or padded
    with spaces. Line 1 is a header when none of its cells reads as a Python
    float. ``1_000`` and ``١`` do, keeping line 1 as data for numpy to reject.
    Lines of only commas, quotes and whitespace are skipped, as is a header.

    Raises:
        DataError: empty file, bytes that are not UTF-8, ragged rows,
            non-numeric or non-finite cells. The message names the line of
            the first fault in file order.
    """
    if orientation not in ("columns", "rows"):
        raise ValueError(f"unknown orientation {orientation!r}")

    def is_number(cell: str) -> bool:
        try:
            float(cell.strip().strip('"'))
        except ValueError:
            return False
        return True

    def cell_lines(fh, rows):
        # numpy pulls one line at a time: the line it rejects is rows[-1]
        for line_no, line in enumerate(fh, start=1):
            # surrogateescape decodes a byte that is not UTF-8 to U+DC80..U+DCFF
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise DataError(f"{path}: line {line_no} is not UTF-8")
            header = line_no == 1 and not any(map(is_number, line.split(",")))
            if not header and re.search(r'[^\s,"]', line):
                rows.append(line_no)
                yield line
        if not rows:
            raise DataError(f"{path}: no numeric rows")

    rows = array("q")  # the file line of each row handed to numpy
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            matrix = np.loadtxt(cell_lines(fh, rows), delimiter=",", quotechar='"',
                                comments=None, ndmin=2)
        except ValueError as exc:
            if type(exc) is not ValueError:
                raise  # a DataError from cell_lines
            ragged = re.search(r"columns changed from (\d+) to (\d+)", str(exc))
            fault = (f"line {rows[-1]} has {ragged[2]} cells, expected {ragged[1]}" if ragged
                     else f"non-numeric cell on line {rows[-1]}")
            raise DataError(f"{path}: {fault}") from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: non-finite cell on line {rows[int(np.argmin(finite))]}")
    return matrix.T.copy() if orientation == "rows" else matrix


def unit_ball_factor(x) -> float:
    """The divisor that puts every column of x inside the unit ball.

    It starts at max(1, largest column norm), so data already inside the
    ball is never scaled up, and steps up to the next float while rounding
    leaves a column of x / factor an ulp above norm 1. The scaled norms are
    taken GENERATE_BLOCK columns at a time, so the check holds a d x block
    temporary. Where a sum of squares overflows, the norms are taken again
    with ``np.hypot``; a non-finite entry or norm raises ValueError.
    """
    m = as_matrix(x)
    factor = float(np.max(np.sqrt(np.einsum("ij,ij->j", m, m)), initial=1.0))
    if not math.isfinite(factor):  # a non-finite entry, or finite squares that overflow
        with np.errstate(over="ignore"):
            factor = float(np.max(np.hypot.reduce(m, axis=0), initial=1.0))
    if not math.isfinite(factor):
        raise ValueError("matrix has a non-finite entry or a column norm past the float range")

    def scaled_norm(lo: int) -> float:  # of the block starting at column lo
        part = m[:, lo : lo + GENERATE_BLOCK] / factor
        return float(np.max(np.sqrt(np.einsum("ij,ij->j", part, part))))

    while factor != 1.0 and max(map(scaled_norm, range(0, m.shape[1], GENERATE_BLOCK))) > 1.0:
        factor = float(np.nextafter(factor, math.inf))
    return factor


def save_matrix_csv(path, x) -> None:
    """Write a matrix as CSV with 17 significant digits (lossless for float64)."""
    np.savetxt(path, ensure_matrix(x), delimiter=",", fmt="%.17g")


@dataclass(frozen=True, eq=False)
class StreamPartition:
    """Disjoint, exhaustive assignment of column indices to clients.

    Each share is a strictly increasing int64 index array (8 bytes per
    column), so per-client column order follows the original stream. Integer
    sequences are converted; a float or bool share raises ValueError. Arrays
    have no truth value, so partitions compare by identity.
    """

    n: int
    assignments: tuple[np.ndarray, ...]

    def __post_init__(self):
        shares = tuple(map(np.asarray, self.assignments))
        if any(a.ndim != 1 or (a.size and a.dtype.kind not in "iu") for a in shares):
            raise ValueError("client indices must be flat sequences of integers")
        shares = tuple(a.astype(np.int64, copy=False) for a in shares)
        object.__setattr__(self, "assignments", shares)
        if any(np.any(np.diff(a) <= 0) for a in shares):
            raise ValueError("client indices must be strictly increasing")
        flat = np.concatenate((np.empty(0, np.int64), *shares))
        in_range = not flat.size or (flat.min() >= 0 and flat.max() < self.n)
        if not in_range or np.count_nonzero(np.bincount(flat, minlength=self.n)) != self.n:
            raise ValueError("assignments must partition range(n)")
        if flat.size != self.n:
            raise ValueError("assignments overlap")

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """One column block per client.

        A share of evenly spaced columns (every share under the contiguous
        and round_robin policies) comes back as a view of the input, with a
        column stride; others as a copy. Only the shape is checked; the
        clients that fold the blocks reject a non-finite entry.
        """
        m = as_matrix(x)
        if m.shape[1] != self.n:
            raise ValueError(f"matrix has {m.shape[1]} columns, expected {self.n}")
        blocks = []
        for idx in self.assignments:
            step = idx[1] - idx[0] if idx.size > 1 else 1
            even = idx.size and not np.any(np.diff(idx) != step)
            blocks.append(m[:, idx[0] : idx[-1] + 1 : step] if even else m[:, idx])
        return blocks


def partition_columns(
    n: int, clients: int, policy: str = "contiguous", seed: int = 0
) -> StreamPartition:
    """Assign n column indices to clients under a named policy.

    contiguous: consecutive runs, sizes within one of n/clients.
    round_robin: client i takes columns i, i + M, i + 2M, ...
    seeded_shuffle: a seeded permutation dealt into equal chunks, each
    client's share then sorted to preserve stream order.

    With fewer columns than clients some shares come back empty, which the
    federation treats as a silent client.
    """
    if clients < 1:
        raise ValueError("clients must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    if policy == "contiguous":
        shares = np.array_split(np.arange(n), clients)
    elif policy == "round_robin":
        shares = [np.arange(i, n, clients) for i in range(clients)]
    elif policy == "seeded_shuffle":
        perm = np.random.default_rng(seed).permutation(n)
        shares = [np.sort(perm[i::clients]) for i in range(clients)]
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return StreamPartition(n, tuple(shares))
