"""Independent reference implementations used only by the tests.

Nothing here calls back into the package's kernels: the SVD oracle is a
one-sided Jacobi iteration, the merge oracle takes numpy's SVD of the
explicit concatenation the merge never forms, the noise-scale oracles and
the exact privacy curve of the Gaussian mechanism run in 60-digit
arithmetic, the subspace-distance oracle forms the full projectors the
library deliberately avoids, the Procrustes oracles align
explicit matrices, the interleavings give observation orders across
clients that a federation's result must not depend on, the bad batches
hold one entry that a finiteness check must catch, and the reference
generators fix the bits of the synthetic data.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def jacobi_svd(a, tol: float = 1e-13, max_sweeps: int = 100):
    """One-sided Jacobi SVD: returns (left, values) sorted descending.

    Rotates column pairs until all are mutually orthogonal; singular values
    are the final column norms. Converges quadratically, good to ~1e-14 on
    well-scaled input, and shares no code path with LAPACK.
    """
    w = np.array(a, dtype=np.float64, copy=True)
    if w.shape[0] < w.shape[1]:
        raise ValueError("oracle expects a tall or square matrix")
    n = w.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(w[:, p] @ w[:, q])
                app = float(w[:, p] @ w[:, p])
                aqq = float(w[:, q] @ w[:, q])
                if abs(apq) <= tol * math.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s * col_q
                w[:, q] = s * col_p + c * col_q
        if not rotated:
            break
    values = np.linalg.norm(w, axis=0)
    order = np.argsort(values)[::-1]
    values = values[order]
    left = np.zeros_like(w)
    for j, idx in enumerate(order):
        if values[j] > 0:
            left[:, j] = w[:, idx] / values[j]
    return left, values


def omega_streaming_hp(epsilon, delta, d, n) -> float:
    """Streaming noise scale evaluated with 60 decimal digits."""
    with mpmath.workdps(60):
        eps = mpmath.mpf(str(epsilon))
        dlt = mpmath.mpf(str(delta))
        dd = mpmath.mpf(d)
        nn = mpmath.mpf(n)
        log_term = mpmath.log(dd * dd / (dlt * mpmath.sqrt(2 * mpmath.pi)))
        omega = (4 * dd / (eps * nn)) * mpmath.sqrt(2 * log_term)
        omega += mpmath.sqrt(2) / (mpmath.sqrt(eps) * nn)
        return float(omega)


def omega_symmetric_hp(epsilon, delta, d, n) -> float:
    """Symmetric one-shot noise scale evaluated with 60 decimal digits."""
    with mpmath.workdps(60):
        eps = mpmath.mpf(str(epsilon))
        dlt = mpmath.mpf(str(delta))
        dd = mpmath.mpf(d)
        nn = mpmath.mpf(n)
        log_term = mpmath.log((dd * dd + dd) / (2 * dlt * mpmath.sqrt(2 * mpmath.pi)))
        omega = ((dd + 1) / (nn * eps)) * mpmath.sqrt(2 * log_term)
        omega += 1 / (nn * mpmath.sqrt(eps))
        return float(omega)


def min_batch_size_hp(epsilon, delta, d, omega_floor) -> int:
    """Ceiling of the batch-width threshold in 60-digit arithmetic."""
    with mpmath.workdps(60):
        eps = mpmath.mpf(str(epsilon))
        dlt = mpmath.mpf(str(delta))
        dd = mpmath.mpf(d)
        log_term = mpmath.log(dd * dd / (dlt * mpmath.sqrt(2 * mpmath.pi)))
        num = (4 * dd / eps) * mpmath.sqrt(2 * log_term) + mpmath.sqrt(2 / eps)
        return int(mpmath.ceil(num / mpmath.mpf(str(omega_floor))))


def gaussian_mechanism_delta(epsilon, sensitivity, omega) -> float:
    """Exact delta at epsilon of the Gaussian mechanism, in 60-digit arithmetic.

    Adding iid N(0, omega^2) noise to a query of L2 sensitivity Delta is
    (epsilon, delta)-DP exactly when delta is at least
    Phi(Delta/(2 omega) - epsilon omega/Delta)
    - e^epsilon Phi(-Delta/(2 omega) - epsilon omega/Delta)
    (Balle & Wang, ICML 2018, Theorem 8).
    """
    with mpmath.workdps(60):
        eps = mpmath.mpf(epsilon)
        ratio = mpmath.mpf(sensitivity) / mpmath.mpf(omega)
        half, shift = ratio / 2, eps / ratio
        return float(mpmath.ncdf(half - shift) - mpmath.exp(eps) * mpmath.ncdf(-half - shift))


def projector_distance(u1, u2) -> float:
    """||P1 - P2||_F with both d x d projectors formed explicitly."""
    p1 = u1 @ u1.T
    p2 = u2 @ u2.T
    return float(np.linalg.norm(p1 - p2, "fro"))


def procrustes_align_error(a, b) -> float:
    """Residual min over square orthogonal W of ||A W - B||_F.

    Solved through the singular values of A^T B:
    ||A||_F^2 + ||B||_F^2 - 2 * nuclear(A^T B), clipped at zero before the
    square root. The terms cancel, so an exact alignment reads about
    sqrt(eps) ||A||_F rather than zero.
    """
    ma = np.asarray(a, dtype=np.float64)
    mb = np.asarray(b, dtype=np.float64)
    if ma.ndim != 2 or ma.shape != mb.shape:
        raise ValueError(f"shapes differ: {ma.shape} vs {mb.shape}")
    nuclear = float(np.sum(np.linalg.svd(ma.T @ mb, compute_uv=False)))
    sq = float(np.sum(ma * ma)) + float(np.sum(mb * mb)) - 2.0 * nuclear
    return math.sqrt(max(sq, 0.0))


def rotation_grid_procrustes(a, b, steps: int = 200000) -> float:
    """Brute-force min over 2x2 orthogonal W of ||A W - B||_F.

    Scans rotations and reflections on an angle grid; only sensible for
    two-column matrices.
    """
    if a.shape[1] != 2 or b.shape != a.shape:
        raise ValueError("grid oracle works on matched two-column matrices")
    best = math.inf
    for k in range(steps):
        theta = 2.0 * math.pi * k / steps
        c, s = math.cos(theta), math.sin(theta)
        for w in (
            np.array([[c, -s], [s, c]]),
            np.array([[c, s], [s, -c]]),
        ):
            best = min(best, float(np.linalg.norm(a @ w - b, "fro")))
    return best


def isotonic_fit(y) -> np.ndarray:
    """Non-decreasing least-squares fit (pool adjacent violators)."""
    values = [float(v) for v in y]
    level = [[v, 1] for v in values]
    merged = []
    for block in level:
        merged.append(block)
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            v2, w2 = merged.pop()
            v1, w1 = merged.pop()
            merged.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for value, weight in merged:
        out.extend([value] * weight)
    return np.asarray(out)


def fix_signs_loop(left) -> None:
    """Column-by-column sign convention, in place: largest |entry| positive.

    Ties go to the lowest row (np.argmax) and an all-zero column stays as
    it is.
    """
    for j in range(left.shape[1]):
        col = left[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            left[:, j] = -col


def concat_svd(s1, s2, r: int):
    """Rank-r factors of [U1*S1 | U2*S2] from a direct SVD of the concatenation.

    Weights enter through the estimates' values, e.g. ``s1.scaled(0.7)``.
    Directions at or below max(d, columns) * eps * s_1 count as exact zeros
    and are dropped, the cutoff the merge applies. Returns (basis, values).
    """
    cols = [s.basis * s.values for s in (s1, s2) if s.values.size]
    if not cols:
        return np.zeros((s1.basis.shape[0], 0)), np.zeros(0)
    c = np.hstack(cols)
    u, vals, _ = np.linalg.svd(c, full_matrices=False)
    cutoff = max(c.shape) * np.finfo(np.float64).eps * vals[0]
    keep = min(r, int(np.sum(vals > cutoff)))
    return u[:, :keep], vals[:keep]


def economy_qr(a):
    """Reduced QR of a tall matrix, signed so that diag(R) >= 0.

    The factor step the synthetic generators were first written with; the
    generators' bits are pinned to it.
    """
    q, r = np.linalg.qr(np.asarray(a, dtype=np.float64))
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def synth_reference(d: int, n: int, alpha: float, seed: int) -> np.ndarray:
    """``datasets.synth`` as first written: U diag(i**-alpha) V^T from seeded QRs."""
    rng = np.random.default_rng(seed)
    k = min(d, n)
    left, _ = economy_qr(rng.standard_normal((d, d)))
    right, _ = economy_qr(rng.standard_normal((n, k)))
    values = np.arange(1, k + 1, dtype=np.float64) ** (-alpha)
    return (left[:, :k] * values) @ right.T


def gaussian_cov_factors(d: int, n: int, alpha: float, seed: int):
    """(shaper, z) of the Gaussian generator, from the same seeded draws.

    ``synth_gaussian_cov`` returns shaper @ z, formed in column blocks; the
    one-shot product of these factors is the definition the blocks must
    reproduce.
    """
    rng = np.random.default_rng(seed)
    basis, _ = economy_qr(rng.standard_normal((d, d)))
    lam = np.arange(1, d + 1, dtype=np.float64) ** (-alpha)
    return basis * np.sqrt(lam), rng.standard_normal((d, n))


def synth_gaussian_cov_reference(d: int, n: int, alpha: float, seed: int) -> np.ndarray:
    """``datasets.synth_gaussian_cov`` as first written: shaper @ z in blocks.

    Blocks of 1024 columns (its GENERATE_BLOCK), the last one absorbing a
    remainder under half a block.
    """
    shaper, z = gaussian_cov_factors(d, n, alpha, seed)
    block, lo = 1024, 0
    while lo < n:
        hi = n if n - lo < block + block // 2 else lo + block
        z[:, lo:hi] = shaper @ z[:, lo:hi]
        lo = hi
    return z


def projection_error_squares(y, basis) -> float:
    """(||Y||_F^2 - ||U^T Y||_F^2) / n with both squares formed elementwise."""
    m = np.asarray(y, dtype=np.float64)
    proj = basis.T @ m
    total = float(np.sum(m * m)) - float(np.sum(proj * proj))
    return max(total, 0.0) / m.shape[1]


SCHEDULES = ("synchronous_rounds", "random_interleave", "adversarial_permutation")


def interleaving_list(lengths, schedule: str, seed: int) -> list:
    """Client visit order of each schedule, built as one list up front.

    Entry k names the client whose next unseen column is observed k-th:
    round after round one column per client, a seeded shuffle of every
    column, or each client's whole stream in a seeded client order.
    """
    if schedule == "synchronous_rounds":
        order = []
        for t in range(max(lengths, default=0)):
            for i, n in enumerate(lengths):
                if t < n:
                    order.append(i)
        return order
    rng = np.random.default_rng(seed)
    if schedule == "random_interleave":
        tokens = np.repeat(np.arange(len(lengths)), lengths)
        rng.shuffle(tokens)
        return [int(i) for i in tokens]
    if schedule == "adversarial_permutation":
        order = []
        for i in rng.permutation(len(lengths)):
            order.extend([int(i)] * lengths[int(i)])
        return order
    raise ValueError(f"unknown schedule {schedule!r}")


# NaN, both infinities, and a finite entry whose square overflows
BAD_ENTRIES = [np.nan, np.inf, -np.inf, 1e200]


def bad_batch(bad: float, d: int, b: int, row: int, clear_rows: int, seed: int) -> np.ndarray:
    """Gaussian d x b batch with ``bad`` at (row, 0) and zeros above it.

    Rows [0, clear_rows) are zero in column 0, so a covariance slab over
    those rows meets the bad entry only through products with zero.
    """
    if not clear_rows <= row < d:
        raise ValueError("the bad row must lie below the cleared rows")
    m = np.random.default_rng(seed).standard_normal((d, b))
    m[:clear_rows, 0] = 0.0
    m[row, 0] = bad
    return m
