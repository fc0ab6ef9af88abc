"""Memory-bounded streaming PCA client.

An EdgeClient ingests columns one at a time, buffers them into batches of
width b, and folds each batch into a rank-r subspace estimate. Without DP
the update is exact rank-r tracking: the batch's own SVD is merged with the
(optionally discounted) carried estimate. With DP the batch is only touched
through its masked covariance slabs, so the raw columns never leave the
buffer unperturbed. Auxiliary memory stays O(d*(r + b)) without DP and
O(d*(b + c)) with it; no d x d buffer is ever formed on the non-private
path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import accounting
from ._blas import single_thread
from .linalg import SubspaceEstimate, as_matrix, merge, subspace_of
from .privacy import (
    DpConfig,
    PrivacyInfeasibleError,
    masked_cov_blocks,
    min_batch_size,
    omega_streaming,
)


@dataclass(frozen=True)
class EnergyBounds:
    """Band [lower, upper] for the tail share of the spectrum.

    The rank grows while the r-th value still carries more than ``upper``
    of the retained energy and shrinks once it carries less than ``lower``.
    max_rank optionally caps growth below the ambient dimension.
    """

    lower: float = 0.01
    upper: float = 0.10
    max_rank: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.lower < self.upper <= 1:
            raise ValueError(
                f"need 0 < lower < upper <= 1, got ({self.lower}, {self.upper})"
            )
        if self.lower / self.upper >= 0.3:
            warnings.warn(
                "energy band is narrow (lower/upper >= 0.3); the rank may "
                "oscillate between adjacent values",
                stacklevel=2,
            )
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be positive when given")


def energy_ratio(values) -> float:
    """Share of the retained energy carried by the last value.

    ratio = values[-1] / sum(values); always <= 1/len(values) for a
    non-increasing spectrum; an empty vector has no energy and raises.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be a vector")
    total = float(np.sum(v))
    if total <= 0:
        raise ValueError("zero total energy; ratio undefined")
    return float(v[-1]) / total


def _new_direction(q: np.ndarray) -> np.ndarray:
    """Unit vector along the first e_i that keeps norm > 1e-6 outside span(q)."""
    for i in range(q.shape[0]):
        w = np.zeros(q.shape[0])
        w[i] = 1.0
        w -= q @ (q.T @ w)
        w -= q @ (q.T @ w)
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-6:
            return w / nrm
    raise ValueError("basis already spans the ambient space")


def adjust_rank(est: SubspaceEstimate, bounds: EnergyBounds) -> SubspaceEstimate:
    """Grow or shrink an estimate by one direction based on its energy ratio.

    Growth appends the first canonical direction not already spanned,
    re-orthogonalized against the basis, signed, and with value 0 so it
    carries no energy until data claims it. Shrinking drops the last one.
    At rank 1, and at min(d, max_rank), the estimate saturates.
    """
    r = est.rank
    if r == 0 or est.values[0] == 0.0:  # non-increasing and non-negative: all zero
        return est
    ratio = energy_ratio(est.values)
    cap = est.dim if bounds.max_rank is None else min(est.dim, bounds.max_rank)
    if ratio > bounds.upper and r < cap:
        basis = np.column_stack([est.basis, _new_direction(est.basis)])
        values = np.append(est.values, 0.0)
        return SubspaceEstimate(basis, values)
    if ratio < bounds.lower and r > 1:
        return SubspaceEstimate(est.basis[:, : r - 1], est.values[: r - 1])
    return est


def ssvd(block, est: SubspaceEstimate, r: int) -> SubspaceEstimate:
    """Fold a raw matrix block into a rank-r estimate.

    This is the client's one fold, used for raw batches and for masked
    covariance slabs alike. An empty estimate is seeded with the block's
    own rank-r truncated SVD. Otherwise the block is reduced to its
    zero-pruned subspace and merged: :func:`merge` factors
    [U*S | U_b*S_b], which gives the rank-r SVD of the column
    concatenation [U*S | block]. An all-zero block reduces to
    the empty estimate, which merge treats as neutral. Only the shape is
    checked here; :func:`truncated_svd` rejects a non-finite entry.
    """
    m = as_matrix(block, "block")
    if m.shape[0] != est.dim:
        raise ValueError("block rows do not match estimate dimension")
    if est.rank == 0 or est.values[0] == 0.0:  # all zero, as the values are non-increasing
        return subspace_of(m, r)
    return merge(est, subspace_of(m), r)


class EdgeClient:
    """Streaming client state: buffer, carried estimate, and rank control.

    Args:
        dim: ambient dimension d of incoming columns.
        rank: initial target rank r.
        batch_size: buffered columns per update (b).
        energy: rank-adaptation band; None pins the rank at ``rank``.
        dp: per-batch privacy budget; None disables masking.
        cov_block_width: covariance slab width c for the DP path
            (default min(dim, 64)).
        forgetting: weight in (0, 1] applied to the carried estimate at
            each batch.
        rng: generator owning this client's mask draws; required with dp.
        rescale_private: rescale covariance-domain values back to the data
            scale (sqrt(b * value)) after each private batch. Off by
            default; the default keeps the covariance-domain values.
    """

    def __init__(
        self,
        dim: int,
        rank: int,
        batch_size: int = 50,
        energy: Optional[EnergyBounds] = None,
        dp: Optional[DpConfig] = None,
        cov_block_width: Optional[int] = None,
        forgetting: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        rescale_private: bool = False,
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0 < forgetting <= 1:
            raise ValueError(f"forgetting must lie in (0, 1], got {forgetting}")
        if cov_block_width is None:
            cov_block_width = min(dim, 64)
        if not 1 <= cov_block_width <= dim:
            raise ValueError(f"cov_block_width must lie in [1, {dim}]")
        if dp is not None and rng is None:
            raise ValueError("private runs need an explicit rng")
        if batch_size < rank:
            warnings.warn(
                f"batch width {batch_size} is below the target rank {rank}; "
                "per-batch summaries cannot reach full rank",
                stacklevel=2,
            )

        self.dim = dim
        self.rank = rank
        self.batch_size = batch_size
        self.energy = energy
        self.dp = dp
        self.cov_block_width = cov_block_width
        self.forgetting = forgetting
        self.rng = rng
        self.rescale_private = rescale_private

        self.estimate = SubspaceEstimate.empty(dim)
        self.blocks_seen = 0
        self.last_omega: Optional[float] = None

        # The d x b column buffer is made by the first observe, so a client
        # fed only whole batches through process_batch never holds one.
        self._buffer: Optional[np.ndarray] = None
        self._fill = 0

    def observe(self, column) -> None:
        """Buffer one column; triggers a batch update when the buffer fills.

        Only the size is checked: a non-finite entry raises ValueError from
        the fold of its batch, in the b-th call or :meth:`finalize`, which
        drops the batch and keeps the state as :meth:`process_batch` says.
        """
        y = np.asarray(column, dtype=np.float64).reshape(-1)
        if y.size != self.dim:
            raise ValueError(f"column has {y.size} entries, expected {self.dim}")
        if self._buffer is None:
            self._buffer = np.zeros((self.dim, self.batch_size))
            accounting.note("edge.buffer", self._buffer.shape)
        self._buffer[:, self._fill] = y
        self._fill += 1
        if self._fill == self.batch_size:
            self._fill = 0
            self.process_batch(self._buffer)

    def process_batch(self, batch) -> SubspaceEstimate:
        """Fold one d x w batch (w <= b) into the carried estimate.

        Only the batch's shape is checked here. Its entries are first read
        by the kernel that uses them, which raises ValueError on a
        non-finite one: :func:`truncated_svd` on the plain path, the
        covariance products in :func:`masked_cov_blocks` on the private one
        (which also reject entries whose squares overflow). A batch that
        fails leaves ``estimate``, ``blocks_seen``, ``last_omega`` and, at
        c = d, the rng unchanged.
        """
        m = as_matrix(batch, "batch")
        if m.shape[0] != self.dim:
            raise ValueError(
                f"batch has {m.shape[0]} rows, expected {self.dim}"
            )
        width = m.shape[1]
        if width > self.batch_size:
            raise ValueError(
                f"batch width {width} exceeds configured {self.batch_size}"
            )

        # Every operand is O(d(r + b)) or O(d(b + c)), too small for a BLAS
        # thread team to pay off.
        with single_thread():
            if self.dp is None:
                updated = ssvd(m, self.estimate.scaled(self.forgetting), self.rank)
                omega = None
            else:
                updated, omega = self._private_update(m)

            if self.energy is not None:
                updated = adjust_rank(updated, self.energy)
                if updated.rank > 0:
                    self.rank = updated.rank

        self.estimate = updated
        self.last_omega = omega
        self.blocks_seen += 1
        return self.estimate

    def _private_update(self, m: np.ndarray) -> Tuple[SubspaceEstimate, float]:
        """The merged estimate and the noise scale its masks were drawn at."""
        width = m.shape[1]
        if self.dp.omega_floor is not None:
            needed = min_batch_size(self.dp, self.dim, self.dp.omega_floor)
            if width < needed:
                raise PrivacyInfeasibleError(
                    f"privacy-infeasible batch: width {width} is below the "
                    f"minimum {needed} for omega_floor={self.dp.omega_floor}"
                )
        omega = omega_streaming(self.dp, self.dim, width)

        local = SubspaceEstimate.empty(self.dim)
        for slab in masked_cov_blocks(m, self.cov_block_width, omega, self.rng):
            local = ssvd(slab, local, self.rank)
        if self.rescale_private:
            local = SubspaceEstimate(local.basis, np.sqrt(width * local.values))

        return merge(local, self.estimate.scaled(self.forgetting), self.rank), omega

    def finalize(self) -> SubspaceEstimate:
        """Flush any buffered partial batch and return the estimate."""
        if self._fill > 0:
            filled = self._fill
            self._fill = 0
            self.process_batch(self._buffer[:, :filled])
        return self.estimate
