"""Dense subspace algebra for streaming PCA.

Everything operates on column-space summaries: a matrix block is reduced to
an orthonormal basis U (d x r) paired with non-negative singular values, and
summaries from disjoint column blocks are merged without ever rebuilding the
original matrix. The merge is one thin SVD of [U1*S1 | U2*S2], the two
scaled bases side by side in one d x (r1 + r2) array, so its cost is
independent of the number of columns ever observed, and it is exact when
the target rank covers the combined rank.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import accounting

# Orthonormality slack per unit of leading dimension.
ORTHO_TOL = 1e-10

_EPS = np.finfo(np.float64).eps


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return a 2-D float64 array with at least one row and column.

    Only the shape is checked; the entries are not read, so a caller that
    skips :func:`ensure_matrix` must reject non-finite entries itself.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    return m


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = as_matrix(a, name)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _fix_signs(left: np.ndarray) -> None:
    """Flip columns in place so each column's largest-magnitude entry is positive.

    Ties pick the lowest row index (np.argmax); an all-zero column stays.
    Checking rule: one max and one min reduction, then one Python pass over
    the k columns, with argmax on a tied column alone. Flips go column by
    column: ``left *= signs`` allocates an iteration buffer of up to 8192
    elements, and ``np.negative(col, out=col)`` writes wrong entries under
    numpy 2.4 when the column's stride is exactly 8 elements.
    """
    for j, (top, bottom) in enumerate(zip(left.max(axis=0), left.min(axis=0))):
        if -bottom >= top and (-bottom > top or left[np.argmax(np.abs(left[:, j])), j] < 0):
            left[:, j] *= -1.0


def _nonzero_count(values: np.ndarray, dim_max: int) -> int:
    """How many of the non-increasing values exceed the zero cutoff dim_max * eps * values[0]."""
    keep = values.size
    cutoff = dim_max * _EPS * float(values[0])
    while keep and values[keep - 1] <= cutoff:
        keep -= 1
    return keep


def _check_orthonormal(u: np.ndarray) -> None:
    r = u.shape[1]
    if r == 0:
        return
    gram = u.T @ u
    gram.flat[:: r + 1] -= 1.0  # gram - I in place, so the check holds one r x r array
    dev = float(np.abs(gram, out=gram).max())
    if not dev <= ORTHO_TOL * max(u.shape[0], 1):  # nan or inf for a non-finite entry
        raise ValueError(f"basis is not column-orthonormal (deviation {dev:.3e})")


@dataclass(frozen=True)
class SubspaceEstimate:
    """Orthonormal basis (d x r) with non-increasing, non-negative values.

    r = 0 is a valid empty estimate and acts as the neutral element of
    :func:`merge`. Instances are treated as immutable snapshots; the arrays
    they carry are never mutated by this module.

    Checks, in order: every value finite, the values non-negative and
    non-increasing (by iteration, cheaper than numpy at small r), the basis orthonormal.
    """

    basis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", values)
        if basis.ndim != 2:
            raise ValueError("basis must be 2-D")
        if values.ndim != 1 or values.size != basis.shape[1]:
            raise ValueError("values length must match basis column count")
        if basis.shape[1] > basis.shape[0]:
            raise ValueError("rank cannot exceed ambient dimension")
        if not values.size:
            return
        # finiteness first: a NaN fails no comparison below
        if not all(map(math.isfinite, values)):
            raise ValueError("estimate contains non-finite values")
        if values[-1] < 0 or any(map(operator.lt, values, values[1:])):
            raise ValueError("values must be non-increasing and non-negative")
        _check_orthonormal(basis)

    @classmethod
    @lru_cache(maxsize=128)
    def empty(cls, dim: int) -> "SubspaceEstimate":
        """The rank-0 estimate in dimension dim, one shared instance per dim.

        Sharing is safe because its arrays hold no elements to mutate.
        """
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        return cls(np.zeros((dim, 0)), np.zeros(0))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def truncated(self, r: int) -> "SubspaceEstimate":
        """Leading min(r, rank) directions, unchanged otherwise."""
        if r < 0:
            raise ValueError("rank must be non-negative")
        if r >= self.rank:
            return self
        return SubspaceEstimate(self.basis[:, :r], self.values[:r])

    def scaled(self, weight: float) -> "SubspaceEstimate":
        """Same directions with values multiplied by a weight in (0, inf); an overflow raises."""
        if not 0 < weight < math.inf:
            raise ValueError(f"weight must lie in (0, inf), got {weight}")
        if weight == 1.0 or self.rank == 0:
            return self
        if not math.isfinite(float(self.values[0]) * weight):
            raise ValueError(f"weight {weight} overflows the largest value {self.values[0]}")
        return SubspaceEstimate(self.basis, self.values * weight)


def truncated_svd(a, r: int) -> SubspaceEstimate:
    """Leading r left singular vectors and values of a dense matrix.

    One LAPACK SVD of the whole matrix at every shape, truncated to rank r,
    so each value is within a small multiple of eps * s_1 of the exact one.
    Column signs follow a fixed convention: the largest-magnitude entry of
    each left vector is positive, ties resolved at the lowest row index.

    Args:
        a: d x n matrix with finite entries.
        r: number of directions, 1 <= r <= min(d, n).

    Returns:
        SubspaceEstimate with exactly r values (zeros included when
        rank(a) < r).
    """
    m = ensure_matrix(a)
    d, n = m.shape
    if not 1 <= r <= min(d, n):
        raise ValueError(f"r={r} outside [1, {min(d, n)}] for shape {m.shape}")

    u, s, vt = np.linalg.svd(m, full_matrices=False)
    accounting.note("truncated_svd.left", u.shape)
    accounting.note("truncated_svd.right", vt.shape)
    left = u if r == u.shape[1] else u[:, :r].copy()
    _fix_signs(left)
    return SubspaceEstimate(left, s[:r].copy())


def subspace_of(a, r: Optional[int] = None) -> SubspaceEstimate:
    """Subspace estimate of a matrix block, zero directions pruned.

    With r omitted, keeps every direction carrying a nonzero singular value;
    otherwise at most r of them. Only the shape is checked here;
    :func:`truncated_svd` rejects a non-finite entry and an r below 1.
    """
    m = as_matrix(a)
    d, n = m.shape
    f = truncated_svd(m, min(d, n) if r is None else min(r, d, n))
    return f.truncated(_nonzero_count(f.values, max(d, n)))


def merge(s1: SubspaceEstimate, s2: SubspaceEstimate, r: int) -> SubspaceEstimate:
    """Rank-r summary of the column concatenation behind two estimates.

    One thin SVD of [U1*S1 | U2*S2], the scaled bases written side by
    side into one d x (r1 + r2) array, gives the leading r values and
    directions. When r1 + r2 exceeds d, the left factor is d x d and the
    same steps apply. Exact when r covers the combined rank.
    This is the package's only merge: a weighted concatenation
    [w1*U1*S1 | w2*U2*S2] is ``merge(s1.scaled(w1), s2.scaled(w2), r)``.

    The empty estimate is neutral: merging s with it returns s truncated
    to r. The panel puts the estimate with the larger leading value first,
    its values' and then its basis's bytes breaking an exact tie, so
    ``merge(a, b)`` and ``merge(b, a)`` are bit-identical.

    At its peak a merge holds the panel and the two factors of its SVD.
    The panel is filled with ``einsum``, which gives the same bits as a
    broadcast ``np.multiply`` but, under numpy 2.4, no iteration buffer:
    the broadcast allocates buffers of up to 8192 elements each, 128 KiB
    for a 400 x 50 block. The inputs are dropped once they are copied
    into the panel. A Python caller hands its argument references to the
    callee, so a temporary such as the block summary in
    ``merge(est, subspace_of(block), r)`` is freed before the SVD too.
    """
    if s1.dim != s2.dim:
        raise ValueError("estimates live in different ambient dimensions")
    if not 1 <= r <= s1.dim:
        raise ValueError(f"target rank {r} outside [1, {s1.dim}]")
    if s1.rank == 0:
        return s2.truncated(r)
    if s2.rank == 0:
        return s1.truncated(r)
    if s2.values[0] > s1.values[0] or s2.values[0] == s1.values[0] and (
        s2.values.tobytes(), s2.basis.tobytes()
    ) > (s1.values.tobytes(), s1.basis.tobytes()):
        s1, s2 = s2, s1

    d, r1 = s1.dim, s1.rank
    a = np.empty((d, r1 + s2.rank))
    np.einsum("ij,j->ij", s1.basis, s1.values, out=a[:, :r1])
    np.einsum("ij,j->ij", s2.basis, s2.values, out=a[:, r1:])
    del s1, s2  # a caller's temporary summary is freed before the SVD
    accounting.note("merge.concat", a.shape)
    u, vals, _ = np.linalg.svd(a, full_matrices=False)
    accounting.note("merge.left", u.shape)
    keep = min(r, _nonzero_count(vals, max(a.shape)))
    del a  # freed before the basis is copied out of u, so the two never coexist
    basis = u if keep == u.shape[1] else u[:, :keep].copy()
    accounting.note("merge.basis", basis.shape)
    _fix_signs(basis)
    return SubspaceEstimate(basis, vals[:keep].copy())
