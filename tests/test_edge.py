import contextlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpca import accounting, linalg
from fedpca.edge import EdgeClient, EnergyBounds, adjust_rank, energy_ratio, ssvd
from fedpca.federation import FederationConfig, build_tree, run_federation
from fedpca.linalg import SubspaceEstimate, subspace_of, truncated_svd
from fedpca.privacy import DpConfig, PrivacyInfeasibleError, derive_rng, omega_streaming
from oracles import BAD_ENTRIES, bad_batch, fix_signs_loop, jacobi_svd, projector_distance

NON_FINITE = [np.nan, np.inf, -np.inf]


def rank3_batch(rng, d, n, sigmas=(24.0, 16.0, 8.0)):
    """Exactly rank-3 matrix with well-separated singular values."""
    u = np.linalg.qr(rng.standard_normal((d, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    return u @ np.diag(sigmas) @ v.T


class TestEnergyRatio:
    def test_flat_spectrum(self):
        assert energy_ratio([3.0, 2.0, 1.0]) == pytest.approx(1.0 / 6.0)

    def test_spiked_spectrum(self):
        assert energy_ratio([100.0, 1.0]) == pytest.approx(1.0 / 101.0)

    def test_rank_one(self):
        assert energy_ratio([5.0]) == 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="zero total energy"):
            energy_ratio([])
        with pytest.raises(ValueError, match="zero total energy"):
            energy_ratio([0.0, 0.0])
        with pytest.raises(ValueError, match="must be a vector"):
            energy_ratio([[1.0, 0.5]])


class TestEnergyBounds:
    def test_defaults(self):
        b = EnergyBounds()
        assert b.lower == 0.01 and b.upper == 0.10

    def test_narrow_band_warns(self):
        with pytest.warns(UserWarning, match="narrow"):
            EnergyBounds(0.05, 0.10)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            EnergyBounds(0.2, 0.1)
        with pytest.raises(ValueError):
            EnergyBounds(0.0, 0.1)


class TestAdjustRank:
    def test_grow_appends_zero_energy_direction(self):
        for a in (
            np.diag([3.0, 2.0, 1.0, 1e-9])[:, :3],  # ratio = 1/6 > 0.10: grow
            # ratio 1.0; the residual of (1, 0, 0) is (0.447, -0.894, 0), largest entry negative
            np.array([[3.0], [1.5], [0.0]]),
        ):
            est = truncated_svd(a, a.shape[1])
            out = adjust_rank(est, EnergyBounds())
            assert out.rank == est.rank + 1
            assert out.values[-1] == 0.0
            gram = out.basis.T @ out.basis
            assert np.max(np.abs(gram - np.eye(out.rank))) < 1e-10
            signed = out.basis.copy()
            fix_signs_loop(signed)
            assert np.array_equal(signed, out.basis)  # the sign rule holds for the new column

    def test_shrink_drops_trailing_direction(self):
        u = np.eye(4)[:, :2]
        est = SubspaceEstimate(u, np.array([100.0, 1.0]))
        # ratio = 1/101 < 0.01: shrink
        out = adjust_rank(est, EnergyBounds())
        assert out.rank == 1
        assert np.allclose(out.values, [100.0])

    def test_inside_band_is_a_no_op(self):
        est = SubspaceEstimate(np.eye(5)[:, :2], np.array([20.0, 1.0]))
        # ratio = 1/21 ~ 0.048 inside (0.01, 0.10)
        assert adjust_rank(est, EnergyBounds()) is est

    def test_saturates_at_rank_one(self):
        est = SubspaceEstimate(np.eye(3)[:, :1], np.array([2.0]))
        out = adjust_rank(est, EnergyBounds())  # ratio 1.0 > upper but capped
        assert out.rank == 2  # grows instead, there is room
        capped = adjust_rank(est, EnergyBounds(max_rank=1))
        assert capped.rank == 1

    def test_saturates_at_dimension(self):
        est = subspace_of(np.diag([3.0, 2.9, 2.8]))
        out = adjust_rank(est, EnergyBounds())  # ratio ~ 0.32 but rank == dim
        assert out.rank == 3

    def test_zero_estimate_passthrough(self):
        est = SubspaceEstimate.empty(4)
        assert adjust_rank(est, EnergyBounds()) is est


class TestSsvd:
    def test_empty_estimate_is_plain_svd(self):
        a = np.random.default_rng(0).standard_normal((6, 9))
        out = ssvd(a, SubspaceEstimate.empty(6), 4)
        ref = truncated_svd(a, 4)
        assert np.max(np.abs(out.values - ref.values)) < 1e-12
        assert projector_distance(out.basis, ref.basis) < 1e-10

    def test_fold_equals_concat_svd(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((7, 12)), rng.standard_normal((7, 8))
        est = ssvd(a, SubspaceEstimate.empty(7), 7)
        out = ssvd(b, est, 7)
        expect = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
        assert np.max(np.abs(out.values - expect)) < 1e-8

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            ssvd(np.ones((3, 2)), SubspaceEstimate.empty(4), 2)


class TestEdgeClientPlain:
    def test_first_batch_matches_direct_svd(self):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((10, 25))
        client = EdgeClient(dim=10, rank=4, batch_size=25)
        est = client.process_batch(batch)
        ref = truncated_svd(batch, 4)
        assert np.max(np.abs(est.values - ref.values)) < 1e-10
        assert projector_distance(est.basis, ref.basis) < 1e-8

    def test_full_rank_stream_matches_offline_svd(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((16, 200))
        client = EdgeClient(dim=16, rank=16, batch_size=100)
        client.process_batch(y[:, :100])
        est = client.process_batch(y[:, 100:])
        expect = np.linalg.svd(y, compute_uv=False)
        assert np.max(np.abs(est.values - expect)) < 1e-8

    def test_observe_equals_explicit_batches(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((8, 30))
        a = EdgeClient(dim=8, rank=3, batch_size=10)
        for j in range(30):
            a.observe(y[:, j])
        b = EdgeClient(dim=8, rank=3, batch_size=10)
        for k in range(3):
            b.process_batch(y[:, k * 10 : (k + 1) * 10])
        assert a.blocks_seen == b.blocks_seen == 3
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert np.array_equal(a.estimate.basis, b.estimate.basis)

    def test_finalize_flushes_partial_batch(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((6, 17))
        client = EdgeClient(dim=6, rank=2, batch_size=10)
        for j in range(17):
            client.observe(y[:, j])
        assert client.blocks_seen == 1
        est = client.finalize()
        assert client.blocks_seen == 2
        assert est.rank == 2
        # the flush folds exactly the 7 buffered columns
        direct = EdgeClient(dim=6, rank=2, batch_size=10)
        direct.process_batch(y[:, :10])
        direct.process_batch(y[:, 10:])
        assert np.array_equal(est.basis, direct.estimate.basis)
        assert np.array_equal(est.values, direct.estimate.values)

    def test_forgetting_discounts_history(self):
        rng = np.random.default_rng(6)
        spike = np.outer(np.eye(8)[:, 0], np.ones(10)) * 10.0
        later = rng.standard_normal((8, 10)) * 0.1
        keep = EdgeClient(dim=8, rank=1, batch_size=10, forgetting=1.0)
        keep.process_batch(spike)
        keep.process_batch(later)
        fade = EdgeClient(dim=8, rank=1, batch_size=10, forgetting=0.1)
        fade.process_batch(spike)
        fade.process_batch(later)
        assert fade.estimate.values[0] < keep.estimate.values[0]

    def test_all_zero_first_batch_leaves_estimate_empty(self):
        client = EdgeClient(dim=6, rank=3, batch_size=10, forgetting=0.5)
        assert client.process_batch(np.zeros((6, 10))).rank == 0
        batch = np.random.default_rng(13).standard_normal((6, 10))
        est = client.process_batch(batch)
        seed = subspace_of(batch, 3)
        assert np.array_equal(est.values, seed.values)
        assert np.array_equal(est.basis, seed.basis)

    def test_all_zero_batch_mid_stream_discounts_history(self):
        rng = np.random.default_rng(14)
        client = EdgeClient(dim=6, rank=3, batch_size=10, forgetting=0.5)
        client.process_batch(rng.standard_normal((6, 10)))
        previous = client.process_batch(rng.standard_normal((6, 10)))
        est = client.process_batch(np.zeros((6, 10)))
        want = previous.scaled(0.5).truncated(3)
        assert np.array_equal(est.values, want.values)
        assert np.array_equal(est.basis, want.basis)

    def test_rank_adaptation_shrinks_on_spiked_data(self):
        # the spike subspace must stay fixed across batches, otherwise the
        # union of per-batch subspaces is genuinely high-dimensional
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.standard_normal((12, 2)))[0]
        client = EdgeClient(dim=12, rank=6, batch_size=40, energy=EnergyBounds())
        for _ in range(8):
            batch = u @ np.diag([50.0, 25.0]) @ rng.standard_normal((2, 40))
            batch += 0.01 * rng.standard_normal((12, 40))
            client.process_batch(batch)
        assert client.rank < 6
        assert client.estimate.rank == client.rank

    def test_rank_adaptation_grows_on_flat_data(self):
        rng = np.random.default_rng(8)
        client = EdgeClient(
            dim=12, rank=2, batch_size=40, energy=EnergyBounds(max_rank=6)
        )
        for _ in range(8):
            client.process_batch(rng.standard_normal((12, 40)))
        assert client.rank > 2
        assert client.rank <= 6

    @pytest.mark.parametrize("feed, message", [
        (lambda c: c.observe(np.ones(5)), "column has 5 entries, expected 4"),
        (lambda c: c.process_batch(np.ones((3, 2))), "batch has 3 rows, expected 4"),
    ], ids=["observe-size", "batch-rows"])
    def test_misshapen_input_rejected(self, feed, message):
        client = EdgeClient(dim=4, rank=2, batch_size=5)
        with pytest.raises(ValueError, match=message):
            feed(client)
        assert client.blocks_seen == 0 and client.estimate.rank == 0

    def test_oversized_batch_rejected(self):
        client = EdgeClient(dim=4, rank=2, batch_size=5)
        with pytest.raises(ValueError):
            client.process_batch(np.ones((4, 6)))

    def test_small_batch_warns(self):
        with pytest.warns(UserWarning, match="below the target rank"):
            EdgeClient(dim=10, rank=8, batch_size=4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EdgeClient(dim=0, rank=1)
        with pytest.raises(ValueError):
            EdgeClient(dim=4, rank=5)
        with pytest.raises(ValueError):
            EdgeClient(dim=4, rank=2, forgetting=0.0)
        with pytest.raises(ValueError):
            EdgeClient(dim=4, rank=2, dp=DpConfig(1.0, 0.1))  # rng missing


def low_rank(rng, d, n, values):
    """A d x n matrix whose nonzero singular values are ``values``."""
    u = np.linalg.qr(rng.standard_normal((d, len(values))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(values))))[0]
    return (u * np.asarray(values)) @ v.T


def stream(y, r, b, forgetting=1.0):
    """One plain client fed y in b-wide slices; returns (estimate, folds)."""
    warns = (pytest.warns(UserWarning, match="below the target rank") if b < r
             else contextlib.nullcontext())
    with warns:
        client = EdgeClient(dim=y.shape[0], rank=r, batch_size=b, forgetting=forgetting)
    for lo in range(0, y.shape[1], b):
        client.process_batch(y[:, lo : lo + b])
    return client.estimate, client.blocks_seen


def graded(rng):
    y = low_rank(rng, 20, 120, 10.0 * np.logspace(0, -8, 10))  # kappa = 1e8
    return (*stream(y, 10, 20), y)


def rank2_at_r5(rng):
    y = low_rank(rng, 12, 60, [3.0, 1.0])
    return (*stream(y, 5, 10), y)


def zero_batch_mid_stream(rng):
    y = low_rank(rng, 10, 50, [4.0, 2.0, 1.0])
    y[:, 20:30] = 0.0
    return (*stream(y, 4, 10), y)


def batch_below_rank(rng):
    y = low_rank(rng, 10, 30, [5.0, 3.0, 2.0, 1.0])
    return (*stream(y, 6, 3), y)


def batch_wider_than_d(rng):
    y = rng.standard_normal((4, 50))
    return (*stream(y, 4, 12), y)


def one_dimension(rng):
    y = rng.standard_normal((1, 23))
    return (*stream(y, 1, 5), y)


def discounted(rng):
    y = rng.standard_normal((8, 40))
    batch = np.arange(40) // 8
    return (*stream(y, 8, 8, forgetting=0.9), y * 0.9 ** (batch[-1] - batch))


def empty_leaf(workers):
    def case(rng):
        y = low_rank(rng, 8, 60, [4.0, 3.0, 2.0, 1.0, 0.5])
        cfg = FederationConfig(rank=6, batch_size=10)
        out = run_federation([y[:, :25], y[:, 25:25], y[:, 25:]], build_tree(3, 2),
                             cfg, max_workers=workers)
        return out.estimate, 3 + 4 + 2, y  # the leaves' batches, then two merges
    return case


def long_stream(rng):
    y = low_rank(rng, 30, 60_000, [5.0, 4.0, 3.0, 2.0, 1.0])
    return (*stream(y, 5, 6), y)


HARD_INPUTS = {
    "graded-kappa-1e8": graded,
    "rank2-at-r5": rank2_at_r5,
    "zero-batch-mid-stream": zero_batch_mid_stream,
    "b3-below-r6": batch_below_rank,
    "b-wider-than-d": batch_wider_than_d,
    "d1": one_dimension,
    "forgetting-0.9": discounted,
    "empty-leaf-1-worker": empty_leaf(1),
    "empty-leaf-2-workers": empty_leaf(2),
    "1e4-folds": long_stream,
}


def assert_streams_exactly(est, folds, y):
    """Every value within 64 eps s_1 per fold of y's Jacobi values; an orthonormal basis."""
    assert est.rank > 0
    want = jacobi_svd(y.T if y.shape[1] > y.shape[0] else y)[1]
    got = np.zeros(want.size)
    got[: est.rank] = est.values
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * want[0] * folds
    gram = est.basis.T @ est.basis
    assert np.max(np.abs(gram - np.eye(est.rank))) <= linalg.ORTHO_TOL * est.dim


@pytest.mark.parametrize("case", HARD_INPUTS)
def test_hard_inputs_stream_exactly(case):
    """With r at or above the data's rank, a plain stream is its offline SVD.

    Every value is within 64 eps s_1 per fold of the one-sided Jacobi values
    of the (weighted) concatenation, and the basis is orthonormal.
    """
    assert_streams_exactly(*HARD_INPUTS[case](np.random.default_rng(26)))


@st.composite
def hard_streams(draw):
    """(y, r, b, forgetting): data of rank at most r, graded to kappa 1e8,
    b below r or above d, possibly one all-zero batch, possibly discounted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 40))
    r = draw(st.integers(1, d))
    b = draw(st.integers(1, 50))
    folds = draw(st.integers(1, 5))
    n = draw(st.integers((folds - 1) * b + 1, folds * b))  # the last batch may be partial
    k = draw(st.integers(1, min(r, n)))
    y = low_rank(rng, d, n, 10.0 * np.logspace(0, -draw(st.floats(0, 8)), k))
    if folds > 1 and draw(st.booleans()):
        zero = draw(st.integers(0, folds - 1))
        y[:, zero * b : (zero + 1) * b] = 0.0
    return y, r, b, draw(st.sampled_from([1.0, 0.9]))


@settings(max_examples=40, deadline=None)
@given(case=hard_streams())
def test_drawn_hard_inputs_stream_exactly(case):
    """test_hard_inputs_stream_exactly's claim and bounds on drawn inputs."""
    y, r, b, forgetting = case
    est, folds = stream(y, r, b, forgetting)
    batch = np.arange(y.shape[1]) // b
    assert_streams_exactly(est, folds, y * forgetting ** (batch[-1] - batch))


class TestUpdateMemory:
    # Python objects and the new estimate's validation temporaries (a d x r
    # boolean mask, an r x r Gram product); no d x (r + b) array fits in it
    ALLOWANCE = 32 * 1024

    @pytest.mark.parametrize(
        "d, r, b",
        [(100, 10, 50), (400, 10, 50), (1000, 5, 20), (60, 10, 50), (300, 20, 100),
         (2000, 10, 600)],
    )
    def test_plain_update_peak_is_three_panels_and_a_square(self, d, r, b):
        """One non-private update allocates at most 8 (2d(r+b) + (r+b)^2) bytes.

        With k = r + b, merge takes one of two routes, and the shapes
        cover both. When 2k > d (d = 60, 100) the update peaks at the panel
        [U*S | U_b*S_b] (d k doubles) and the two factors of its SVD: the
        left one (d k) and the right one (k^2). Everything else is freed
        before the SVD: merge drops the block summary U_b (d b) once it is
        copied into the panel, and it frees the panel before it copies the
        new basis (d r) out of the left factor. When 2k <= d it peaks at
        the SVD of the k-square core: U_b, kept until the new basis is
        formed, the residual's basis Q (d r), the core and its two factors,
        d k + 3 k^2 in all, which is no more than 2 d k + k^2 exactly when
        2k <= d. The block's own SVD holds less: d b + b^2. The peak is
        measured above the update's entry, with the batch and the carried
        rank-r estimate already allocated.
        """
        rng = np.random.default_rng(d + r + b)
        batches = [rng.standard_normal((d, b)) for _ in range(3)]
        client = EdgeClient(d, r, batch_size=b)
        for piece in batches[:2]:  # the carried estimate reaches rank r
            client.process_batch(piece)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            client.process_batch(batches[2])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert client.estimate.rank == r
        assert peak <= 8 * (2 * d * (r + b) + (r + b) ** 2) + self.ALLOWANCE

    def test_batch_fed_client_holds_no_column_buffer(self):
        """A client fed only through process_batch never makes its d x b buffer.

        Construction and one update leave less than d b doubles allocated:
        the carried rank-r estimate and Python objects. Only observe needs
        the column buffer, and the first observe makes it.
        """
        d, r, b = 200, 5, 50
        batch = np.random.default_rng(0).standard_normal((d, b))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            client = EdgeClient(d, r, batch_size=b)
            client.process_batch(batch)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert client.estimate.rank == r
        assert held < 8 * d * b

    def test_first_observe_makes_the_buffer(self):
        client = EdgeClient(4, 2, batch_size=3)
        with accounting.track() as tracker:
            assert client.finalize() is client.estimate  # nothing observed
            assert client.blocks_seen == 0
            client.observe(np.ones(4))
            client.observe(np.arange(4.0))
        assert tracker.by_label == {"edge.buffer": 12}
        assert tracker.total_events == 1


class TestPrivateUpdateMemory:
    @pytest.mark.parametrize("d, b, c, r", [(20, 5000, 20, 5), (64, 2000, 16, 8)])
    def test_private_update_peaks_below_one_batch_mask(self, d, b, c, r):
        """One private update allocates less than d b bytes.

        That is the size of one boolean mask over the d x b batch, so the
        update makes no finiteness scan of the batch. What it does allocate
        is O(d (c + r)): a slab, its mask and the slab's fold. The peak is
        measured above the update's entry, with the batch and the carried
        rank-r estimate already allocated.
        """
        rng = np.random.default_rng(d + b)
        batches = [rng.uniform(-1.0, 1.0, (d, b)) for _ in range(3)]
        client = EdgeClient(
            d, r, batch_size=b, dp=DpConfig(4.0, 0.1), cov_block_width=c,
            rng=derive_rng(d, 0),
        )
        for piece in batches[:2]:
            client.process_batch(piece)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            client.process_batch(batches[2])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert client.estimate.rank == r
        assert peak < d * b


class TestBadBatches:
    """A batch with a bad entry raises ValueError and changes no client state.

    The first, good batch leaves an estimate and a noise scale; the bad
    batch is narrower, so its noise scale would differ from the kept one.
    """

    D, B = 6, 30

    def _client(self, c=None):
        dp = None if c is None else DpConfig(1.0, 0.1)
        rng = None if c is None else derive_rng(5, 0)
        client = EdgeClient(self.D, 2, batch_size=self.B, dp=dp, cov_block_width=c, rng=rng)
        client.process_batch(np.random.default_rng(0).uniform(-1.0, 1.0, (self.D, self.B)))
        return client

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    @pytest.mark.parametrize("c, clear_rows", [(6, 0), (2, 2)])
    def test_private_update(self, bad, c, clear_rows):
        client = self._client(c)
        est, omega = client.estimate, client.last_omega
        state = client.rng.bit_generator.state
        batch = bad_batch(bad, self.D, self.B - 10, row=4, clear_rows=clear_rows, seed=1)
        with pytest.raises(ValueError, match="non-finite"):
            client.process_batch(batch)
        assert client.estimate is est
        assert client.blocks_seen == 1
        assert client.last_omega == omega
        if c == self.D:  # the one slab failed before its mask was drawn
            assert client.rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_plain_update(self, bad):
        # a finite 1e200 is a valid plain batch: LAPACK scales it
        client = self._client()
        est = client.estimate
        with pytest.raises(ValueError, match="non-finite"):
            client.process_batch(bad_batch(bad, self.D, self.B, row=4, clear_rows=0, seed=1))
        assert client.estimate is est
        assert client.blocks_seen == 1
        assert client.last_omega is None

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("c", [None, 6, 2])
    @pytest.mark.parametrize("width", [B, B - 10], ids=["bth-observe", "finalize"])
    def test_observed_column(self, bad, c, width):
        # observe buffers the bad column unread; the fold of its batch, in
        # the b-th observe or in finalize, rejects it and drops the batch
        client = self._client(c)
        est, omega = client.estimate, client.last_omega
        state = None if c is None else client.rng.bit_generator.state
        batch = bad_batch(bad, self.D, width, row=4, clear_rows=0, seed=1)
        with pytest.raises(ValueError, match="non-finite"):
            for column in batch[:, ::-1].T:  # the bad column arrives last
                client.observe(column)
            client.finalize()
        assert client.estimate is est
        assert client.blocks_seen == 1
        assert client.last_omega == omega
        if c == self.D:
            assert client.rng.bit_generator.state == state
        if c in (None, self.D):
            # the client then folds exactly as one that never saw the batch
            fresh = self._client(c)
            good = np.random.default_rng(2).uniform(-1.0, 1.0, (self.D, 2 * self.B - 7))
            for target in (client, fresh):
                for column in good.T:
                    target.observe(column)
                target.finalize()
            assert client.blocks_seen == fresh.blocks_seen == 3
            assert np.array_equal(client.estimate.basis, fresh.estimate.basis)
            assert np.array_equal(client.estimate.values, fresh.estimate.values)
            assert client.last_omega == fresh.last_omega

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("kernel", [
        lambda m: truncated_svd(m, 2),
        lambda m: subspace_of(m),
        lambda m: ssvd(m, SubspaceEstimate.empty(m.shape[0]), 2),
        lambda m: ssvd(m, truncated_svd(np.eye(m.shape[0]), 2), 2),
    ], ids=["truncated_svd", "subspace_of", "ssvd-seed", "ssvd-merge"])
    def test_fold_kernels(self, bad, kernel):
        with pytest.raises(ValueError, match="non-finite"):
            kernel(bad_batch(bad, self.D, self.B, row=4, clear_rows=0, seed=1))


def count_calls(monkeypatch, owners, name):
    """Wrap every binding of ``name`` in ``owners``; return the call list."""
    calls = []
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counting)
    return calls


class TestEntriesReadOnce:
    """Each entry's value is checked once, by the kernel that reads it."""

    def test_plain_update_checks_its_batch_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        client = EdgeClient(12, 3, batch_size=20)
        client.process_batch(rng.standard_normal((12, 20)))
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "fedpca"]
        calls = count_calls(monkeypatch, [linalg] + package, "ensure_matrix")
        client.process_batch(rng.standard_normal((12, 20)))
        assert len(calls) == 1  # truncated_svd, which hands the batch to LAPACK

    def test_observe_reads_no_entry(self, monkeypatch):
        client = EdgeClient(8, 2, batch_size=50)
        columns = np.random.default_rng(4).standard_normal((8, 49))
        calls = count_calls(monkeypatch, [np], "isfinite")
        for column in columns.T:
            client.observe(column)
        assert calls == []


class TestEdgeClientPrivate:
    def test_tiny_noise_recovers_covariance_eigenstructure(self):
        rng = np.random.default_rng(9)
        batch = rank3_batch(rng, 8, 64)
        dp = DpConfig(1e9, 0.1)
        client = EdgeClient(dim=8, rank=3, batch_size=64, dp=dp, rng=derive_rng(0, 0))
        est = client.process_batch(batch)
        cov = batch @ batch.T / 64.0
        eigvals = np.linalg.eigvalsh(cov)[::-1]
        assert np.max(np.abs(est.values - eigvals[:3])) < 1e-4
        eigvecs = np.linalg.eigh(cov)[1][:, ::-1][:, :3]
        assert projector_distance(est.basis, eigvecs) < 1e-3

    def test_rescale_returns_data_domain_values(self):
        rng = np.random.default_rng(10)
        batch = rank3_batch(rng, 8, 64)
        dp = DpConfig(1e9, 0.1)
        client = EdgeClient(
            dim=8, rank=3, batch_size=64, dp=dp,
            rng=derive_rng(0, 0), rescale_private=True,
        )
        est = client.process_batch(batch)
        expect = np.array([24.0, 16.0, 8.0])
        assert np.max(np.abs(est.values - expect) / expect) < 1e-3

    def test_omega_tracks_actual_batch_width(self):
        dp = DpConfig(0.5, 0.1)
        client = EdgeClient(dim=6, rank=2, batch_size=50, dp=dp, rng=derive_rng(1, 0))
        client.process_batch(np.random.default_rng(0).standard_normal((6, 20)))
        assert client.last_omega == omega_streaming(dp, 6, 20)

    def test_infeasible_batch_raises(self):
        dp = DpConfig(0.1, 0.05, omega_floor=1.0)  # needs 3219 columns
        client = EdgeClient(dim=20, rank=4, batch_size=50, dp=dp, rng=derive_rng(2, 0))
        with pytest.raises(PrivacyInfeasibleError, match="below the minimum 3219"):
            client.process_batch(np.ones((20, 50)))

    def test_same_seed_reproduces_same_estimate(self):
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((10, 40))
        runs = []
        for _ in range(2):
            client = EdgeClient(
                dim=10, rank=3, batch_size=40,
                dp=DpConfig(1.0, 0.1), rng=derive_rng(7, 0),
            )
            runs.append(client.process_batch(batch))
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].basis, runs[1].basis)
        other = EdgeClient(
            dim=10, rank=3, batch_size=40,
            dp=DpConfig(1.0, 0.1), rng=derive_rng(8, 0),
        )
        alt = other.process_batch(batch)
        assert not np.allclose(alt.values, runs[0].values)

    def test_slab_width_does_not_change_low_rank_result(self):
        # with the batch rank below the fold rank no direction is ever
        # discarded, so any slab width reassembles the same covariance
        rng = np.random.default_rng(12)
        batch = rank3_batch(rng, 9, 30)
        values = []
        for c in (1, 3, 8, 9):
            client = EdgeClient(
                dim=9, rank=4, batch_size=30,
                dp=DpConfig(1e9, 0.1), cov_block_width=c, rng=derive_rng(3, 0),
            )
            values.append(client.process_batch(batch).values)
        for v in values[1:]:
            assert v.shape == values[0].shape
            assert np.max(np.abs(v - values[0])) < 1e-5
