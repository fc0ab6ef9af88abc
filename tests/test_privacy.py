import itertools
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedpca.privacy import (
    CalibrationError,
    DpConfig,
    derive_rng,
    gaussian_mask,
    masked_cov_blocks,
    min_batch_size,
    omega_streaming,
    omega_symmetric_sulq,
    symmetric_gaussian_mask,
)
from oracles import (
    BAD_ENTRIES,
    bad_batch,
    gaussian_mechanism_delta,
    min_batch_size_hp,
    omega_streaming_hp,
    omega_symmetric_hp,
)

# 60-digit arithmetic, rounded to double
OMEGA_STREAM_REF = 0.643618959411308  # eps=0.1 delta=0.05 d=20 n=5000
OMEGA_SYM_REF = 0.1624704105497724  # same parameters
OMEGA_STREAM_SMALL = 0.10795575808454175  # eps=1.0 delta=0.1 d=8 n=1000
MIN_BATCH_REF = 3219  # eps=0.1 delta=0.05 d=20 floor=1.0


class TestNoiseScales:
    def test_streaming_frozen_value(self):
        got = omega_streaming(DpConfig(0.1, 0.05), 20, 5000)
        assert type(got) is float
        assert abs(got - OMEGA_STREAM_REF) < 1e-12

    def test_streaming_small_case(self):
        got = omega_streaming(DpConfig(1.0, 0.1), 8, 1000)
        assert abs(got - OMEGA_STREAM_SMALL) < 1e-12

    def test_symmetric_frozen_value(self):
        got = omega_symmetric_sulq(DpConfig(0.1, 0.05), 20, 5000)
        assert type(got) is float
        assert abs(got - OMEGA_SYM_REF) < 1e-12

    def test_matches_high_precision_oracle_on_grid(self):
        for eps in (0.05, 0.3, 1.0, 4.0):
            for d in (2, 16, 128):
                for n in (10, 1000):
                    want = omega_streaming_hp(eps, 0.05, d, n)
                    got = omega_streaming(DpConfig(eps, 0.05), d, n)
                    assert abs(got - want) < 1e-12 * max(1.0, want)
                    want = omega_symmetric_hp(eps, 0.05, d, n)
                    got = omega_symmetric_sulq(DpConfig(eps, 0.05), d, n)
                    assert abs(got - want) < 1e-12 * max(1.0, want)

    def test_batch_doubling_halves_leading_term(self):
        cfg = DpConfig(0.1, 0.05)
        a = omega_streaming(cfg, 20, 5000)
        b = omega_streaming(cfg, 20, 10000)
        assert abs(a - 2.0 * b) < 1e-12  # both terms scale as 1/n

    def test_monotone_in_epsilon_and_batch(self):
        eps_grid = np.linspace(0.05, 4.0, 10)
        n_grid = np.linspace(100, 10_000, 10).astype(int)
        for fn in (omega_streaming, omega_symmetric_sulq):
            row = [fn(DpConfig(e, 0.05), 20, 5000) for e in eps_grid]
            assert np.all(np.diff(row) < 0)
            col = [fn(DpConfig(0.1, 0.05), 20, int(n)) for n in n_grid]
            assert np.all(np.diff(col) < 0)

    def test_degenerate_log_raises(self):
        # d*d <= delta*sqrt(2*pi): the Gaussian-tail bound collapses
        with pytest.raises(CalibrationError):
            omega_streaming(DpConfig(0.1, 0.9), 1, 100)
        with pytest.raises(CalibrationError):
            omega_symmetric_sulq(DpConfig(0.1, 0.999), 1, 100)

    @pytest.mark.parametrize("fn", [omega_streaming, omega_symmetric_sulq])
    @pytest.mark.parametrize("eps, delta", [(1e-320, 0.1), (1.0, 1e-320)])
    def test_overflowing_scale_names_the_budget(self, fn, eps, delta):
        # once an inf scale that only gaussian_mask rejected, naming no budget
        with pytest.raises(CalibrationError, match=r"epsilon=.*delta=.*d=8"):
            fn(DpConfig(eps, delta), 8, 10)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps):
        # epsilon=inf once gave omega 0: no noise, yet a run recorded as private
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            DpConfig(eps, 0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DpConfig(0.0, 0.05)
        with pytest.raises(ValueError):
            DpConfig(1.0, 0.0)
        with pytest.raises(ValueError):
            DpConfig(1.0, 1.0)
        with pytest.raises(ValueError):
            DpConfig(1.0, 0.05, omega_floor=0.0)


class TestExactGuarantee:
    """Each noise scale against the exact privacy curve of the Gaussian mechanism."""

    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.sampled_from([
            (omega_streaming, math.sqrt(2.0)),
            (omega_symmetric_sulq, math.sqrt(2.0)),
            (omega_streaming, 2.0),
        ]),
        log_eps=st.floats(-3.0, 3.0),
        log_delta=st.floats(-9.0, math.log10(0.9)),
        d=st.integers(1, 1000),
        b=st.integers(1, 5000),
    )
    # the largest delta(eps) / delta of a scratch grid, for each scale and norm
    @example(scale=(omega_streaming, math.sqrt(2.0)), log_eps=0.0, log_delta=math.log10(0.3),
             d=1, b=1)
    @example(scale=(omega_symmetric_sulq, math.sqrt(2.0)), log_eps=1.0,
             log_delta=math.log10(0.3), d=1, b=5000)
    @example(scale=(omega_streaming, 2.0), log_eps=math.log10(4.0), log_delta=math.log10(0.3),
             d=1, b=50)
    def test_noise_scale_meets_the_budget(self, scale, log_eps, log_delta, d, b):
        # Replacing one column, both of norm <= 1, moves the batch
        # covariance by ||y y^T - y' y'^T||_F / b <= sqrt(2) / b. The
        # symmetric mask masks the upper triangle alone, no more sensitive.
        # The streaming scale meets the budget at the looser 2 / b too
        # (||y y^T||_F + ||y' y'^T||_F <= 2); SuLQ does not (at d=1,
        # eps=1000, delta=1e-9 its delta(eps) is about 6.9e8 delta), so it
        # is not drawn there.
        fn, norm = scale
        eps, delta = 10.0**log_eps, 10.0**log_delta
        try:
            omega = fn(DpConfig(eps, delta), d, b)
        except CalibrationError:
            assume(False)
        assert gaussian_mechanism_delta(eps, norm / b, omega) <= delta


class TestMinBatchSize:
    def test_frozen_value(self):
        assert min_batch_size(DpConfig(0.1, 0.05), 20, 1.0) == MIN_BATCH_REF
        assert min_batch_size_hp(0.1, 0.05, 20, 1.0) == MIN_BATCH_REF

    def test_fixed_point(self):
        # omega at the returned size is within the floor; one sample fewer is not
        cfg = DpConfig(0.1, 0.05)
        for floor in (0.5, 1.0, 2.0):
            n = min_batch_size(cfg, 20, floor)
            assert omega_streaming(cfg, 20, n) <= floor + 1e-12
            if n > 1:
                assert omega_streaming(cfg, 20, n - 1) > floor
        # a floor equal to a width's own noise scale gives that width back,
        # though the n = 1 scale over the floor rounds apart from it
        widths = list(range(1, 394, 8))
        for eps, delta in itertools.product(np.geomspace(0.05, 8, 10), np.geomspace(0.01, 0.3, 6)):
            dp = DpConfig(float(eps), float(delta))
            for d in (2, 3, 5, 8, 12, 20, 40, 64, 100, 200, 400):
                assert [min_batch_size(dp, d, omega_streaming(dp, d, n)) for n in widths] == widths

    def test_tighter_floor_needs_more_samples(self):
        cfg = DpConfig(0.5, 0.05)
        sizes = [min_batch_size(cfg, 30, f) for f in (2.0, 1.0, 0.5, 0.25)]
        assert sizes == sorted(sizes)

    def test_never_below_one(self):
        assert min_batch_size(DpConfig(4.0, 0.1), 2, 1e6) == 1


class TestMasks:
    def test_zero_omega_is_exact_zero(self):
        rng = np.random.default_rng(0)
        m = gaussian_mask(4, 7, 0.0, rng)
        assert m.shape == (4, 7)
        assert np.count_nonzero(m) == 0
        assert not np.signbit(m).any()  # +0.0, never -0.0

    def test_variance_within_one_percent(self):
        rng = np.random.default_rng(42)
        m = gaussian_mask(1000, 1000, 0.5, rng)
        assert abs(m.var() / 0.25 - 1.0) < 0.01
        se = 0.5 / math.sqrt(1_000_000)
        assert abs(m.mean()) < 3 * se

    def test_symmetric_mask_properties(self):
        rng = np.random.default_rng(7)
        m = symmetric_gaussian_mask(200, 0.3, rng)
        assert np.array_equal(m, m.T)
        off = m[np.triu_indices(200, 1)]
        assert abs(off.var() / 0.09 - 1.0) < 0.05

    def test_symmetric_mask_is_the_triangle_of_one_draw(self):
        # bit for bit the draw the sweep has always used, so its outputs hold
        for d, omega in ((1, 0.3), (6, 0.3), (50, 1.7)):
            got = symmetric_gaussian_mask(d, omega, np.random.default_rng(9))
            upper = np.triu(np.random.default_rng(9).normal(0.0, omega, size=(d, d)))
            assert np.array_equal(got, upper + np.triu(upper, 1).T)
        zero = symmetric_gaussian_mask(5, 0.0, np.random.default_rng(0))
        assert np.count_nonzero(zero) == 0
        assert not np.signbit(zero).any()

    @pytest.mark.parametrize("omega", [-0.1, math.nan, math.inf])
    def test_bad_omega_rejected(self, omega):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="omega"):
            gaussian_mask(3, 2, omega, rng)
        with pytest.raises(ValueError, match="omega"):
            symmetric_gaussian_mask(3, omega, rng)
        with pytest.raises(ValueError, match="omega"):
            next(masked_cov_blocks(np.ones((3, 4)), 2, omega, rng))

    def test_derive_rng_is_stable_and_distinct(self):
        a = derive_rng(123, 0, 1).standard_normal(4)
        b = derive_rng(123, 0, 1).standard_normal(4)
        c = derive_rng(123, 0, 2).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMaskedCovBlocks:
    def test_zero_noise_reassembles_exact_covariance(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 40))
        want = (m @ m.T) / 40.0
        for width in (1, 3, 9, 10):
            got = np.hstack(list(masked_cov_blocks(m, width, 0.0, rng)))
            assert got.shape == (10, 10)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_blocks_cover_disjoint_column_ranges(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 20))
        want = (m @ m.T) / 20.0
        slabs = list(masked_cov_blocks(m, 3, 0.0, rng))
        assert [s.shape for s in slabs] == [(7, 3), (7, 3), (7, 1)]
        for k, slab in enumerate(slabs):
            assert np.max(np.abs(slab - want[:, 3 * k : 3 * k + 3])) < 1e-12

    @pytest.mark.parametrize("d, c", [(1, 1), (5, 2), (8, 8), (9, 4), (4, 10)])
    def test_slab_k_has_width_min_c_and_rest(self, d, c):
        rng = np.random.default_rng(2)
        shapes = [s.shape for s in masked_cov_blocks(rng.standard_normal((d, 6)), c, 0.2, rng)]
        assert shapes == [(d, min(c, d - k * c)) for k in range(math.ceil(d / c))]

    def test_noise_level_matches_omega(self):
        rng = np.random.default_rng(11)
        d, n = 50, 30
        m = np.zeros((d, n))  # pure noise remains
        (noise,) = masked_cov_blocks(m, d, 0.5, rng)
        assert abs(noise.var() / 0.25 - 1.0) < 0.1

    def test_bad_width_rejected(self):
        rng = np.random.default_rng(0)
        m = np.zeros((4, 4))
        gen = masked_cov_blocks(m, 0, 0.1, rng)
        with pytest.raises(ValueError):
            next(gen)

    def test_slabs_are_the_scaled_products_bit_for_bit(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((9, 13))
        for k, slab in enumerate(masked_cov_blocks(m, 4, 0.0, rng)):
            lo, hi = 4 * k, min(4 * k + 4, 9)
            want = (m @ m[lo:hi, :].T) * (1.0 / 13)
            assert np.array_equal(slab, want)
            assert np.array_equal(np.signbit(slab), np.signbit(want))  # array_equal has -0.0 == 0.0

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_bad_entry_fails_the_one_slab(self, bad):
        # c = d: the product holds the bad entry's square on its diagonal
        m = bad_batch(bad, d=6, b=30, row=4, clear_rows=0, seed=1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="non-finite entries or its squares overflow"):
            next(masked_cov_blocks(m, 6, 0.3, rng))
        assert rng.bit_generator.state == state  # no mask was drawn

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_bad_entry_outside_the_first_slab(self, bad):
        # row 4 lies in the third slab of width 2, and the first slab's rows
        # are zero in the bad column. A non-finite entry still spoils the
        # first product, because nan * 0 and inf * 0 are nan and OpenBLAS,
        # which numpy's wheels ship, multiplies by zero. A finite 1e200
        # times zero is zero, so only its own slab, where it is squared, fails.
        m = bad_batch(bad, d=6, b=30, row=4, clear_rows=2, seed=1)
        gen = masked_cov_blocks(m, 2, 0.3, np.random.default_rng(0))
        if np.isfinite(bad):
            next(gen)
            next(gen)
        with pytest.raises(ValueError, match="non-finite entries or its squares overflow"):
            next(gen)

    @pytest.mark.parametrize("c", [5, 16])
    def test_strided_batch_gives_the_slabs_of_its_copy(self, c):
        # numpy multiplies a batch with no unit stride in its own loop,
        # whose last bits differ from BLAS's; the kernel copies it first
        view = np.random.default_rng(8).standard_normal((16, 2000))[:, 1::4]
        copy = np.ascontiguousarray(view)
        got = list(masked_cov_blocks(view, c, 0.3, np.random.default_rng(1)))
        want = list(masked_cov_blocks(copy, c, 0.3, np.random.default_rng(1)))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_slice_is_not_copied(self, order):
        # a 400 x 50 copy (160 KB) would outweigh the two 400 x 8 slabs
        d, c = 400, 8
        rng = np.random.default_rng(4)
        y = np.asarray(rng.standard_normal((d, 200)), order=order)
        list(masked_cov_blocks(y[:, :2], 1, 0.3, rng))  # first-use imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            deque(masked_cov_blocks(y[:, :50], c, 0.3, rng), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * d * c + 16384

    def test_generator_holds_at_most_two_slabs(self):
        # the slab yielded last stays bound until the next product replaces
        # it; scaling that product in place adds no third d x c array
        d, c = 400, 64
        rng = np.random.default_rng(4)
        m = rng.standard_normal((d, 50))
        list(masked_cov_blocks(m[:, :2], 1, 0.3, rng))  # first-use imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            deque(masked_cov_blocks(m, c, 0.3, rng), maxlen=0)  # drop each slab
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * d * c + 16384


@pytest.mark.parametrize("call, message", [
    (lambda: omega_streaming(DpConfig(1.0, 0.1), 0, 10), "dimension must be positive, got 0"),
    (lambda: omega_symmetric_sulq(DpConfig(1.0, 0.1), 4, 0),
     "batch width must be positive, got 0"),
    (lambda: min_batch_size(DpConfig(1.0, 0.1), 4, 0.0), "omega_floor must be positive, got 0.0"),
    (lambda: min_batch_size(DpConfig(1.0, 0.1), 4, math.nan),
     "omega_floor must be positive, got nan"),
    (lambda: gaussian_mask(0, 2, 1.0, np.random.default_rng(0)),
     r"mask shape must be positive, got \(0, 2\)"),
], ids=["omega-dim", "omega-width", "floor-zero", "floor-nan", "mask-shape"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError
