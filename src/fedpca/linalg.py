"""Dense subspace algebra for streaming PCA.

Everything operates on column-space summaries: a matrix block is reduced to
an orthonormal basis U (d x r) paired with non-negative singular values, and
summaries from disjoint column blocks are merged without ever rebuilding the
original matrix. The merge factors [U1*S1 | U2*S2], the two scaled bases
side by side: by one thin SVD of that d x (r1 + r2) panel, or, when
2 (r1 + r2) <= d, by projecting the narrower summary off the wider one's
basis and taking the SVD of an (r1 + r2)-square core. Either way its cost
is independent of the number of columns ever observed, and it is exact
when the target rank covers the combined rank.
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


def _flipped_columns(left: np.ndarray) -> list:
    """Columns whose largest-magnitude entry is negative, in increasing order.

    Ties pick the lowest row index (np.argmax); an all-zero column is never
    listed. One max and one min reduction, then one pass over the k columns
    in Python floats, which compare faster than numpy scalars; only a
    column whose largest magnitude is reached with both signs takes an
    argmax of its own.
    """
    top, bottom = left.max(axis=0).tolist(), left.min(axis=0).tolist()
    return [
        j for j, (t, b) in enumerate(zip(top, bottom))
        if -b >= t and (-b > t or left[np.argmax(np.abs(left[:, j])), j] < 0)
    ]


def _fix_signs(left: np.ndarray) -> None:
    """Flip columns in place so each column's largest-magnitude entry is positive.

    The columns are those of :func:`_flipped_columns`. Flips go column by
    column: ``left *= signs`` allocates an iteration buffer of up to 8192
    elements, and ``np.negative(col, out=col)`` writes wrong entries under
    numpy 2.4 when the column's stride is exactly 8 elements.
    """
    for j in _flipped_columns(left):
        left[:, j] *= -1.0


def _nonzero_count(values: np.ndarray, dim_max: int) -> int:
    """How many of the non-increasing values exceed the zero cutoff dim_max * eps * values[0]."""
    keep = values.size
    cutoff = dim_max * _EPS * float(values[0])
    while keep and values[keep - 1] <= cutoff:
        keep -= 1
    return keep


def _check_orthonormal(u: np.ndarray) -> None:
    gram = u.T @ u
    gram.flat[:: u.shape[1] + 1] -= 1.0  # gram - I in place, so the check holds one r x r array
    dev = float(np.abs(gram, out=gram).max(initial=0.0))  # an empty basis deviates by 0
    if not dev <= ORTHO_TOL * max(u.shape[0], 1):  # nan or inf for a non-finite entry
        raise ValueError(f"basis is not column-orthonormal (deviation {dev:.3e})")


@dataclass(frozen=True)
class SubspaceEstimate:
    """Signed orthonormal basis (d x r) with non-increasing, non-negative values.

    r = 0 is a valid empty estimate and acts as the neutral element of
    :func:`merge`. Instances are treated as immutable snapshots; the arrays
    they carry are never mutated by this module.

    Checks, in order: every value finite, the values non-negative and
    non-increasing (by iteration, cheaper than numpy at small r), the basis orthonormal.

    Every stored basis is signed: each column's largest-magnitude entry is
    positive (:func:`_fix_signs`). An unsigned basis is stored as a signed
    copy, leaving the caller's array as it was; a signed one, as every
    kernel returns, is stored uncopied.
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
        # finiteness first: a NaN fails no comparison below
        if not all(map(math.isfinite, values)):
            raise ValueError("estimate contains non-finite values")
        if (values.size and values[-1] < 0) or any(map(operator.lt, values, values[1:])):
            raise ValueError("values must be non-increasing and non-negative")
        _check_orthonormal(basis)
        if values.size and _flipped_columns(basis):
            basis = basis.copy()
            _fix_signs(basis)
            object.__setattr__(self, "basis", basis)

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


def _merge_by_projection(
    wide: SubspaceEstimate, narrow: SubspaceEstimate, r: int
) -> SubspaceEstimate:
    """Rank-r summary of [U_b*S_b | U*S] through U's projection off span(U_b).

    U (d x r1, the narrower summary) splits as U_b C + Q R: two classical
    Gram-Schmidt passes give C = U_b^T U and the residual W = U - U_b C,
    and the reduced QR of W gives Q R. Then [U_b*S_b | U*S] equals
    [U_b | Q] K with the (r1 + r2)-square core K = [[C S, S_b], [R S, 0]],
    so the SVD of K gives the values, and [U_b | Q] times its left factor
    the directions (Brand, Linear Algebra Appl. 415, 2006). Needs
    r1 + r2 <= d, since Q must be orthogonal to U_b.
    """
    ub, u = wide.basis, narrow.basis
    d, r2, r1 = ub.shape[0], ub.shape[1], u.shape[1]
    c = ub.T @ u
    w = u - ub @ c
    fix = ub.T @ w
    w -= ub @ fix
    c += fix
    accounting.note("merge.residual", w.shape)
    q, rr = np.linalg.qr(w)
    del w
    core = np.zeros((r1 + r2, r1 + r2))
    core[:r2, :r1] = c * narrow.values
    core[r2:, :r1] = rr * narrow.values
    np.fill_diagonal(core[:r2, r1:], wide.values)
    accounting.note("merge.core", core.shape)
    uk, vals = np.linalg.svd(core)[:2]
    accounting.note("merge.factor", uk.shape)
    del core  # with the right factor, freed before the basis is formed
    keep = min(r, _nonzero_count(vals, d))
    basis = ub @ uk[:r2, :keep]
    basis += q @ uk[r2:, :keep]
    accounting.note("merge.basis", basis.shape)
    _fix_signs(basis)
    return SubspaceEstimate(basis, vals[:keep].copy())


def merge(s1: SubspaceEstimate, s2: SubspaceEstimate, r: int) -> SubspaceEstimate:
    """Rank-r summary of the column concatenation behind two estimates.

    Returns the leading r values and directions of [U1*S1 | U2*S2], the
    scaled bases side by side. Exact when r covers the combined rank.
    This is the package's only merge: a weighted concatenation
    [w1*U1*S1 | w2*U2*S2] is ``merge(s1.scaled(w1), s2.scaled(w2), r)``.

    The empty estimate is neutral: merging s with it returns s truncated
    to r. The estimate with the larger leading value goes first, its
    values' and then its basis's bytes breaking an exact tie, so
    ``merge(a, b)`` and ``merge(b, a)`` are bit-identical.

    Two routes, chosen by the memory each holds at its peak, with
    k = r1 + r2:

    - 2k <= d: the projection route (:func:`_merge_by_projection`). The
      narrower summary, the second one on a tie in rank, is projected off
      the wider one's basis, which is kept until the new basis is formed;
      then one SVD of a k x k core. It holds d k + 3 k^2 doubles.
    - 2k > d: one thin SVD of the d x k panel [U1*S1 | U2*S2], which
      holds the panel and the two factors of its SVD, 2 d k + k^2
      doubles. When k exceeds d, the left factor is d x d and the same
      steps apply; no residual basis can then be orthogonal to the first
      summary's, so this is the only route. The panel is filled with
      ``einsum``, which gives the same bits as a broadcast
      ``np.multiply`` but, under numpy 2.4, no iteration buffer: the
      broadcast allocates buffers of up to 8192 elements each, 78 KiB
      for the 100 x 50 block of a 100 x 60 panel. The inputs are
      dropped once they are copied into the panel. A Python caller hands
      its argument references to the callee, so a temporary such as the
      block summary in ``merge(est, subspace_of(block), r)`` is freed
      before the SVD too.

    The projection route prunes values at or below d * eps * s_1, the
    panel route at max(d, k) * eps * s_1. The cutoffs differ only when
    k > d, which only the panel route takes.

    Neither route reads its inputs' signs: every estimate is signed when
    built (:class:`SubspaceEstimate`), so on both routes the bits do not
    depend on the signs of the columns the inputs were built from.
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

    d, r1, r2 = s1.dim, s1.rank, s2.rank
    if 2 * (r1 + r2) <= d:
        return _merge_by_projection(s1, s2, r) if r1 >= r2 else _merge_by_projection(s2, s1, r)
    a = np.empty((d, r1 + r2))
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
