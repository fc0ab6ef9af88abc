"""Gaussian noise calibration and masked covariance blocks.

Covariance release works block-wise: the d x d sample covariance of a batch
is produced c columns at a time, each slab perturbed with an independent
iid Gaussian mask whose scale follows from the (epsilon, delta) budget, the
ambient dimension, and the batch width. Both noise scales are one formula,
owned with its checks by ``_omega``. Besides the batch, the streaming path
holds two d x c arrays at most; the SuLQ baseline's mask holds d x d ones.

A batch is read once, by the covariance products, which also check its
finiteness without a second d x b scan: a non-finite entry, or a finite
one whose square overflows, always leaves a non-finite value in a
product. The one exception is a batch with no unit stride, copied once so
that every layout gives the same bits (both in :func:`masked_cov_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import accounting
from .linalg import as_matrix

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class CalibrationError(ValueError):
    """The privacy parameters leave the noise scale undefined."""


class PrivacyInfeasibleError(RuntimeError):
    """A batch is too small to honor the requested noise floor."""


@dataclass(frozen=True)
class DpConfig:
    """Per-batch (epsilon, delta) budget.

    omega_floor, when set, is the largest acceptable noise scale; batches
    narrower than min_batch_size(dp, d, omega_floor) are rejected as
    privacy-infeasible.
    """

    epsilon: float
    delta: float
    omega_floor: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.omega_floor is not None and not self.omega_floor > 0:
            raise ValueError("omega_floor must be positive when given")


def _omega(dp: DpConfig, d: int, n: int, scale: float, log_arg: float, tail: float) -> float:
    """(scale / (eps n)) sqrt(2 ln log_arg) + tail / (sqrt(eps) n), checked."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 1:
        raise ValueError(f"batch width must be positive, got {n}")
    if log_arg <= 1.0:
        raise CalibrationError(
            f"log argument {log_arg:.6g} <= 1; (epsilon, delta, d) admit no "
            "positive noise calibration"
        )
    omega = (scale / (dp.epsilon * n)) * math.sqrt(2.0 * math.log(log_arg))
    omega += tail / (math.sqrt(dp.epsilon) * n)
    if not math.isfinite(omega):
        raise CalibrationError(
            f"noise scale is not finite for epsilon={dp.epsilon:.6g}, "
            f"delta={dp.delta:.6g}, d={d}"
        )
    return omega


def omega_streaming(dp: DpConfig, d: int, n: int) -> float:
    """Mask standard deviation for non-symmetric per-batch covariance release.

    omega = (4 d / (eps n)) sqrt(2 ln(d^2 / (delta sqrt(2 pi))))
            + sqrt(2) / (sqrt(eps) n)
    """
    return _omega(dp, d, n, 4.0 * d, d * d / (dp.delta * _SQRT_2PI), math.sqrt(2.0))


def omega_symmetric_sulq(dp: DpConfig, d: int, n: int) -> float:
    """Mask standard deviation for the symmetric one-shot covariance release.

    omega = ((d + 1) / (n eps)) sqrt(2 ln((d^2 + d) / (2 delta sqrt(2 pi))))
            + 1 / (n sqrt(eps))
    """
    return _omega(dp, d, n, d + 1.0, (d * d + d) / (2.0 * dp.delta * _SQRT_2PI), 1.0)


def min_batch_size(dp: DpConfig, d: int, omega_floor: float) -> int:
    """Smallest batch width whose streaming noise scale stays <= omega_floor.

    Both terms of omega_streaming scale as 1/n, so the width is the n = 1
    scale divided by omega_floor, rounded up. The quotient rounds apart from
    omega_streaming's own divisions, so the ceiling moves by one wherever
    omega_streaming disagrees with it. A quotient that overflows raises
    PrivacyInfeasibleError: no batch width is that wide.
    """
    if not omega_floor > 0:
        raise ValueError(f"omega_floor must be positive, got {omega_floor}")
    width = omega_streaming(dp, d, 1) / omega_floor
    if width == math.inf:
        raise PrivacyInfeasibleError(
            f"privacy-infeasible: omega_floor={omega_floor} is below the noise "
            "scale of any batch width"
        )
    n = max(1, math.ceil(width))
    if omega_streaming(dp, d, n) > omega_floor:
        return n + 1
    if n > 1 and omega_streaming(dp, d, n - 1) <= omega_floor:
        return n - 1
    return n


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (client, block, ...) coordinates.

    Streams derived from the same root with different keys never collide,
    so per-client noise is reproducible regardless of arrival interleaving.
    """
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def gaussian_mask(d: int, c: int, omega: float, rng: np.random.Generator) -> np.ndarray:
    """(d, c) matrix of iid N(0, omega^2), all zeros at omega == 0; the one check on omega."""
    if d < 1 or c < 1:
        raise ValueError(f"mask shape must be positive, got ({d}, {c})")
    if not 0.0 <= omega < math.inf:  # also false for nan
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    accounting.note("privacy.mask", (d, c))
    return rng.normal(0.0, omega, size=(d, c))


def symmetric_gaussian_mask(d: int, omega: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric d x d mask: iid N(0, omega^2) on and above the diagonal."""
    upper = np.triu(gaussian_mask(d, d, omega, rng))
    return upper + np.triu(upper, 1).T


def masked_cov_blocks(
    batch, c: int, omega: float, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield the perturbed batch covariance in column slabs of width c.

    For a batch B (d x b), slab k is a d x min(c, d - k c) array covering
    covariance columns [k c, min((k+1) c, d)); it equals
    (1/b) B (B^T)[:, cols] plus a fresh mask. Concatenating all slabs with
    omega == 0 rebuilds (1/b) B B^T exactly. Each product is scaled in
    place, so besides the slab it builds the generator holds only its mask
    or the slab it yielded last: two d x c arrays at most.

    The slabs depend on B's values, not its layout: a B with no unit
    stride (a round_robin slice) is first copied to C order, one d x b
    array, since BLAS cannot take it and numpy's own loop rounds
    differently. Other batches, column slices included, are not copied.

    Only B's shape is checked up front. Each raw product is checked for
    finiteness before it is scaled or masked, and a failure raises
    ValueError before that slab's mask is drawn. The check catches every
    non-finite entry: one in row j puts B[j, k]^2 into the sum of squares
    at entry (j, j) of the slab covering column j. That factor is never
    zero, so no BLAS skips it, and the sum of non-negative terms stays
    non-finite, as it does when finite squares overflow. (OpenBLAS also
    spoils all of row j of the first product, as inf * 0 and nan * 0 are
    nan; a BLAS that skips zero factors may yield earlier slabs first.)
    """
    m = as_matrix(batch, "batch")
    if m.itemsize not in m.strides:  # no unit stride: numpy's loop, not BLAS
        m = np.ascontiguousarray(m)
    d, b = m.shape
    if c < 1:
        raise ValueError(f"block width must be positive, got {c}")
    inv_b = 1.0 / b
    for lo in range(0, d, c):
        hi = min(lo + c, d)
        with np.errstate(over="ignore", invalid="ignore"):
            slab = m @ m[lo:hi, :].T
        if not np.isfinite(slab).all():
            raise ValueError("batch contains non-finite entries or its squares overflow")
        slab *= inv_b
        accounting.note("privacy.cov_slab", slab.shape)
        slab += gaussian_mask(d, hi - lo, omega, rng)
        yield slab
