import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpca import accounting
from fedpca.datasets import synth_gaussian_cov
from fedpca.linalg import (
    SubspaceEstimate,
    _fix_signs,
    as_matrix,
    merge,
    subspace_of,
    truncated_svd,
)
from oracles import concat_svd, fix_signs_loop, jacobi_svd, projector_distance

# one-sided Jacobi output for default_rng(7).standard_normal((10, 6))
JACOBI_SEED7_VALUES = np.array(
    [
        4.324689171275888,
        3.658133600319227,
        2.7909293712547156,
        2.3789142644003656,
        1.4814941514793576,
        1.2466156807909132,
    ]
)


def random_estimate(seed: int, d: int, r: int, cols: int = None) -> SubspaceEstimate:
    rng = np.random.default_rng(seed)
    cols = cols if cols is not None else max(r, d // 2)
    return subspace_of(rng.standard_normal((d, cols)), r)


class TestFixSigns:
    def test_matches_column_loop_exactly(self):
        rng = np.random.default_rng(3)
        for d, k in ((1, 1), (5, 1), (4, 7), (9, 12), (30, 6), (6, 4), (3, 0)):
            # small integers give ties of opposite sign and all-zero columns
            left = rng.integers(-2, 3, size=(d, k)).astype(np.float64)
            if k:
                left[:, 0] = 0.0
            if d > 1 and k > 1:
                left[:2, -1] = [-2.0, 2.0]
            want_left = left.copy()
            fix_signs_loop(want_left)
            _fix_signs(left)
            assert np.array_equal(left, want_left)
            assert np.array_equal(np.signbit(left), np.signbit(want_left))

    @pytest.mark.parametrize("d", [2, 8, 30])
    def test_eight_columns_match_column_loop(self, d):
        # in-place np.negative on a column view of a C-ordered d x 8 array
        # writes wrong entries in numpy 2.4; the flips must not depend on it
        left = np.random.default_rng(d).standard_normal((d, 8))
        want_left = left.copy()
        fix_signs_loop(want_left)
        _fix_signs(left)
        assert np.array_equal(left, want_left)

    def test_signed_zero_columns_match_column_loop(self):
        # -0.0 never counts as negative, whichever zero max and min report
        left = np.array([[0.0, -0.0, -0.0, 0.0], [-0.0, -0.0, 0.0, -1.0]])
        want_left = left.copy()
        fix_signs_loop(want_left)
        _fix_signs(left)
        assert np.array_equal(np.signbit(left), np.signbit(want_left))

    @staticmethod
    def lapack_left(d, k, seed):
        """The left factor LAPACK returns for a d x k block, or the leading k of a d x d one."""
        rng = np.random.default_rng(seed)
        u = np.linalg.svd(rng.standard_normal((d, max(k, min(d, 20)))), full_matrices=False)[0]
        return u if u.shape[1] == k else u[:, :k].copy()

    @staticmethod
    def force_ties(left):
        """Give every third column an exact tie: its peak magnitude at two rows, opposite signs.

        The negative entry comes first in one column and second in the next,
        so the lowest-row rule must flip one and keep the other.
        """
        for n, j in enumerate(range(0, left.shape[1], 3)):
            col = left[:, j]
            i = int(np.argmax(np.abs(col)))
            peak, other = abs(col[i]), (i + 1) % col.size
            col[min(i, other)] = -peak if n % 2 else peak
            col[max(i, other)] = peak if n % 2 else -peak

    @pytest.mark.parametrize("d, k", [(400, 50), (100, 60), (20, 5)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_lapack_factors_match_column_loop(self, d, k, ties):
        # the factors the three benchmark workloads sign: an edge-stream
        # block, an edge-cli merge panel and a fed-private slab
        for seed in range(4):
            left = self.lapack_left(d, k, seed)
            if ties:
                self.force_ties(left)
            for flipped in (left, -left):
                got, want = flipped.copy(), flipped.copy()
                fix_signs_loop(want)
                _fix_signs(got)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_peak_is_far_below_one_factor(self):
        # a broadcast flip's iteration buffer (up to 64 KiB) or an abs copy
        # of the whole factor (156 KiB here) would break this bound
        d, k = 400, 50
        left = self.lapack_left(d, k, 0)
        self.force_ties(left)
        left = -left  # every column flips
        _fix_signs(left.copy())  # first-use allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _fix_signs(left)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16384 < 8 * d * k


class TestTruncatedSvd:
    def test_identity_values(self):
        f = truncated_svd(np.eye(3), 2)
        assert np.allclose(f.values, [1.0, 1.0])

    def test_diagonal(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(f.values, [3.0, 2.0], atol=1e-14)
        assert np.allclose(np.abs(f.basis[:, 0]), [1, 0, 0])

    def test_seed7_against_jacobi_oracle(self):
        a = np.random.default_rng(7).standard_normal((10, 6))
        f = truncated_svd(a, 6)
        assert np.max(np.abs(f.values - JACOBI_SEED7_VALUES)) < 1e-10
        left, vals = jacobi_svd(a)
        assert np.max(np.abs(f.values - vals)) < 1e-10
        assert projector_distance(f.basis, left) < 1e-8

    def test_reconstruction(self):
        a = np.random.default_rng(3).standard_normal((7, 5))
        f = truncated_svd(a, 5)
        assert np.allclose(f.basis @ (f.basis.T @ a), a, atol=1e-12)

    def test_sign_convention(self):
        a = np.random.default_rng(11).standard_normal((9, 4))
        f = truncated_svd(a, 4)
        for j in range(4):
            col = f.basis[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_permutation_invariance_of_values(self):
        a = np.random.default_rng(5).standard_normal((6, 8))
        perm = np.random.default_rng(6).permutation(8)
        f1 = truncated_svd(a, 5)
        f2 = truncated_svd(a[:, perm], 5)
        assert np.max(np.abs(f1.values - f2.values)) < 1e-12

    @pytest.mark.parametrize("d, n", [(16, 2048), (30, 600)])
    def test_wide_graded_spectrum_to_rounding(self, d, n):
        # values spread over twelve decades; a Gram spectrum squares that
        # range and knows the tail only to about sqrt(eps) * s_1
        rng = np.random.default_rng(21)
        u = np.linalg.qr(rng.standard_normal((d, d)))[0]
        v = np.linalg.qr(rng.standard_normal((n, d)))[0]
        vals = np.logspace(0, -12, d)
        f = truncated_svd((u * vals) @ v.T, d)
        assert np.max(np.abs(f.values - vals)) <= d * np.finfo(np.float64).eps * vals[0]

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)

    def test_rejects_non_finite(self):
        a = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            truncated_svd(a, 1)


class TestSubspaceEstimate:
    def test_empty_is_valid(self):
        s = SubspaceEstimate.empty(5)
        assert s.rank == 0 and s.dim == 5
        assert SubspaceEstimate.empty(5) is s
        assert SubspaceEstimate.empty(6).dim == 6

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceEstimate(np.ones((4, 2)), np.array([2.0, 1.0]))

    def test_rejects_increasing_values(self):
        u = np.eye(4)[:, :2]
        with pytest.raises(ValueError):
            SubspaceEstimate(u, np.array([1.0, 2.0]))

    def test_rejects_negative_values(self):
        u = np.eye(4)[:, :2]
        with pytest.raises(ValueError):
            SubspaceEstimate(u, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_rejects_non_finite_values(self, bad, at):
        # checked before the order: a nan fails every comparison (at 2 it sits
        # between non-increasing neighbours), and an infinity out of order or
        # a -inf would otherwise fail the order check first
        values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        values[at] = bad
        with pytest.raises(ValueError, match="non-finite values"):
            SubspaceEstimate(np.eye(6)[:, :5], values)

    def test_truncated_and_scaled(self):
        s = subspace_of(np.diag([3.0, 2.0, 1.0]))
        t = s.truncated(2)
        assert t.rank == 2 and np.allclose(t.values, [3, 2])
        w = s.scaled(0.5)
        assert np.allclose(w.values, [1.5, 1.0, 0.5])
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                s.scaled(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.0])
    def test_scaled_names_a_weight_outside_zero_to_inf(self, bad):
        s = subspace_of(np.diag([3.0, 2.0]))
        with pytest.raises(ValueError, match=rf"weight must lie in \(0, inf\), got {bad}"):
            s.scaled(bad)

    def test_scaled_overflow_raises_without_a_warning(self):
        s = subspace_of(np.diag([2.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weight 1e[+]308 overflows the largest value 2.0"):
                s.scaled(1e308)
            # the largest finite product is kept
            assert s.scaled(8e307).values[0] == 1.6e308


class TestMerge:
    def test_empty_neutral(self):
        s = random_estimate(0, 8, 3)
        out = merge(s, SubspaceEstimate.empty(8), 2)
        assert out.rank == 2
        assert np.allclose(out.values, s.values[:2])
        assert np.allclose(out.basis, s.basis[:, :2])
        out2 = merge(SubspaceEstimate.empty(8), s, 2)
        assert np.allclose(out2.values, s.values[:2])

    def test_all_zero_values_merge_to_the_empty_estimate(self):
        zero = SubspaceEstimate(np.eye(4)[:, :2], np.zeros(2))
        assert merge(zero, zero, 2) is SubspaceEstimate.empty(4)

    def test_duplicate_estimate_scales_by_sqrt2(self):
        s = subspace_of(np.diag([3.0, 2.0, 1.0]))
        out = merge(s, s, 3)
        assert np.allclose(out.values, np.sqrt(2.0) * np.array([3, 2, 1]), atol=1e-12)
        assert projector_distance(out.basis, s.basis) < 1e-10

    def test_split_halves_recover_whole_spectrum(self):
        y = np.random.default_rng(3).standard_normal((8, 20))
        s1 = subspace_of(y[:, :10])
        s2 = subspace_of(y[:, 10:])
        out = merge(s1, s2, 8)
        expect = np.linalg.svd(y, compute_uv=False)
        assert np.max(np.abs(out.values - expect)) < 1e-8

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_zero_cutoff_counts_values_above_it(self, q):
        # rank-q blocks: the values left after the rank are rounding
        # residue, pruned by the cutoff max(d, n) * eps * s_1
        rng = np.random.default_rng(q)
        d, n = 8, 6
        eps = np.finfo(np.float64).eps
        a = rng.standard_normal((d, q)) @ rng.standard_normal((q, n))
        vals = np.linalg.svd(a, compute_uv=False)
        assert subspace_of(a).rank == int(np.sum(vals > max(d, n) * eps * vals[0]))
        if q:
            s1, s2 = subspace_of(a[:, :3]), subspace_of(a[:, 3:])
            assert merge(s1, s2, d).rank == concat_svd(s1, s2, d)[1].size == q

    def test_duplicate_at_double_rank_prunes_phantoms(self):
        s = random_estimate(9, 10, 4)
        out = merge(s, s, 8)
        assert out.rank == 4  # the span did not grow
        assert np.max(np.abs(out.basis.T @ out.basis - np.eye(4))) < 1e-10

    def test_associativity_on_values(self):
        y = np.random.default_rng(12).standard_normal((9, 30))
        parts = [subspace_of(y[:, i * 10 : (i + 1) * 10]) for i in range(3)]
        left = merge(merge(parts[0], parts[1], 9), parts[2], 9)
        right = merge(parts[0], merge(parts[1], parts[2], 9), 9)
        assert np.max(np.abs(left.values - right.values)) < 1e-8
        assert projector_distance(left.basis, right.basis) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(4, 16),
        r1=st.integers(1, 4),
        r2=st.integers(1, 4),
        r=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_output_always_orthonormal(self, d, r1, r2, r, seed):
        rng = np.random.default_rng(seed)
        s1 = subspace_of(rng.standard_normal((d, max(r1, 2))), r1)
        s2 = subspace_of(rng.standard_normal((d, max(r2, 2))), r2)
        out = merge(s1, s2, min(r, d))
        gram = out.basis.T @ out.basis
        assert np.max(np.abs(gram - np.eye(out.rank))) < 1e-10 * d
        assert np.all(np.diff(out.values) <= 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [400, 100, 20])
    def test_bits_do_not_depend_on_input_signs(self, d, seed):
        # Householder reflectors are sign-equivariant in IEEE arithmetic: a
        # negated panel column negates a column of the right factor only, so
        # a summary that feeds merge alone may keep LAPACK's raw signs
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((d, 60))
        est = subspace_of(y[:, :10], 10)
        u, s, _ = np.linalg.svd(y[:, 10:], full_matrices=False)
        raw = SubspaceEstimate(u, s)  # LAPACK's signs
        fixed = truncated_svd(y[:, 10:], s.size)  # _fix_signs' signs
        flips = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        flipped = SubspaceEstimate(est.basis * flips, est.values)
        want = merge(est, fixed, 10)
        for s1, s2 in ((est, raw), (flipped, fixed), (flipped, raw)):
            got = merge(s1, s2, 10)
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 12),
        r1=st.integers(1, 12),
        r2=st.integers(1, 12),
        r=st.integers(1, 12),
        pair=st.sampled_from(["distinct", "equal", "tied values"]),
        seed=st.integers(0, 10_000),
    )
    def test_argument_order_changes_no_bit(self, d, r1, r2, r, pair, seed):
        # r1 + r2 below, at and past d; a target rank below r1 or not; equal
        # inputs, and inputs whose values tie exactly while their bases differ
        r1, r2, r = min(r1, d), min(r2, d), min(r, d)
        rng = np.random.default_rng(seed)
        s1 = truncated_svd(rng.standard_normal((d, d)), r1)
        s2 = truncated_svd(rng.standard_normal((d, d)), r2)
        if pair == "equal":
            s2 = s1
        elif pair == "tied values":
            s2 = SubspaceEstimate(truncated_svd(rng.standard_normal((d, d)), r1).basis, s1.values)
        one, two = merge(s1, s2, r), merge(s2, s1, r)
        assert one.basis.tobytes() == two.basis.tobytes()
        assert one.values.tobytes() == two.values.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            merge(random_estimate(0, 6, 2), random_estimate(0, 7, 2), 2)

    def test_notes_concatenation_left_factor_and_basis(self):
        s1, s2 = random_estimate(1, 30, 4), random_estimate(2, 30, 6)
        with accounting.track() as tracker:
            merge(s1, s2, 5)
        assert tracker.total_events == 3
        assert tracker.by_label == {"merge.concat": 300, "merge.left": 300, "merge.basis": 150}

    def test_full_rank_tree_with_ranks_past_d(self):
        # the root merge folds 128 + 128 > d directions, so the left factor
        # of its SVD is d x d; the tree is exact at r = d
        d, n = 128, 256
        eps = np.finfo(np.float64).eps
        for seed in range(5):
            y = synth_gaussian_cov(d, n, 1.0, seed)
            leaves = [subspace_of(y[:, i * 64 : (i + 1) * 64], d) for i in range(4)]
            root = merge(merge(leaves[0], leaves[1], d), merge(leaves[2], leaves[3], d), d)
            expect = np.linalg.svd(y, compute_uv=False)
            assert root.rank == d
            assert np.max(np.abs(root.basis.T @ root.basis - np.eye(d))) <= 4 * d * eps
            assert np.max(np.abs(root.values - expect)) <= 2 * d * eps * expect[0]


class TestMergePanel:
    """The panel merge hands to its SVD, and what merge does to its inputs."""

    # (d, rank of s1, rank of s2): r1 + r2 below d, equal to it, and past it
    SHAPES = [(12, 3, 4), (8, 4, 4), (6, 5, 4), (5, 5, 5)]

    @staticmethod
    def _pair(d, r1, r2, seed):
        s1 = subspace_of(np.random.default_rng(seed).standard_normal((d, d)))
        s2 = subspace_of(np.random.default_rng(seed + 1).standard_normal((d, d)))
        # leading columns of a full basis: strided views, not copies
        return s1.truncated(r1), s2.truncated(r2)

    @pytest.mark.parametrize("d, r1, r2", SHAPES)
    def test_panel_is_the_broadcast_product_bit_for_bit(self, monkeypatch, d, r1, r2):
        s1, s2 = self._pair(d, r1, r2, d)
        if r1 < d:
            assert not s1.basis.flags.c_contiguous
        panels = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            panels.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        merge(s1, s2, min(d, r1 + r2))
        (panel,) = panels
        # the estimate with the larger leading value goes first
        first, second = (s1, s2) if s1.values[0] >= s2.values[0] else (s2, s1)
        assert np.array_equal(
            panel, np.hstack([first.basis * first.values, second.basis * second.values])
        )

    @pytest.mark.parametrize("d, r1, r2", SHAPES)
    def test_inputs_unchanged(self, d, r1, r2):
        s1, s2 = self._pair(d, r1, r2, 3 * d)
        before = [a.copy() for a in (s1.basis, s1.values, s2.basis, s2.values)]
        for r in (1, min(d, r1 + r2)):
            out = merge(s1, s2, r)
            after = (s1.basis, s1.values, s2.basis, s2.values)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            assert not any(np.shares_memory(out.basis, a) for a in after)

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 the caller's value stack holds call arguments until the call returns",
    )
    def test_temporary_argument_is_freed_before_the_svd(self, monkeypatch):
        s1 = random_estimate(1, 20, 4)
        refs = []

        def temporary():
            s = random_estimate(2, 20, 6)
            refs.append(weakref.ref(s))
            return s

        alive = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        merge(s1, temporary(), 8)
        assert alive[-1] == [False]  # the merge's SVD; the ones before built the argument


class TestMergeVariants:
    """Weighted and seeded merges against a direct SVD of the concatenation."""

    def test_neutral_weights_match_merge(self):
        s1 = random_estimate(4, 12, 5)
        s2 = random_estimate(5, 12, 4)
        a = merge(s1, s2, 6)
        basis, values = concat_svd(s1, s2, 6)
        assert np.max(np.abs(a.values - values)) < 1e-10
        assert projector_distance(a.basis, basis) < 1e-8

    def test_forgetting_scales_lone_estimate(self):
        s = random_estimate(6, 9, 3)
        out = merge(s.scaled(0.5), SubspaceEstimate.empty(9), 3)
        assert np.allclose(out.values, 0.5 * s.values, atol=1e-12)

    def test_weighted_against_direct_svd(self):
        s1 = random_estimate(7, 10, 4)
        s2 = random_estimate(8, 10, 3)
        concat = np.hstack([0.7 * s1.basis * s1.values, 2.0 * s2.basis * s2.values])
        expect = np.linalg.svd(concat, compute_uv=False)
        out = merge(s1.scaled(0.7), s2.scaled(2.0), 5)
        assert np.max(np.abs(out.values - expect[:5])) < 1e-10

    def test_twenty_seeded_pairs_agree(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(6, 20))
            s1 = subspace_of(rng.standard_normal((d, d)), int(rng.integers(1, d)))
            s2 = subspace_of(rng.standard_normal((d, d)), int(rng.integers(1, d)))
            r = int(rng.integers(1, d + 1))
            out = merge(s1, s2, r)
            basis, values = concat_svd(s1, s2, r)
            assert np.max(np.abs(out.values - values)) < 1e-8
            assert out.rank == values.size
            assert projector_distance(out.basis, basis) < 1e-8


@pytest.mark.parametrize("call, message", [
    (lambda: as_matrix(np.ones(3)), "matrix must be 2-D, got ndim=1"),
    (lambda: as_matrix(np.ones((0, 3))), r"at least one row and column, got \(0, 3\)"),
    (lambda: SubspaceEstimate(np.ones(3), np.ones(1)), "basis must be 2-D"),
    (lambda: SubspaceEstimate(np.eye(3)[:, :2], np.ones(3)), "values length must match"),
    (lambda: SubspaceEstimate(np.ones((2, 3)), np.ones(3)), "rank cannot exceed"),
    (lambda: SubspaceEstimate.empty(0), "ambient dimension must be positive"),
    (lambda: SubspaceEstimate.empty(3).truncated(-1), "rank must be non-negative"),
    (lambda: merge(SubspaceEstimate.empty(3), SubspaceEstimate.empty(3), 4),
     r"target rank 4 outside \[1, 3\]"),
    # subspace_of leaves the rank check to truncated_svd
    (lambda: subspace_of(np.eye(3), 0), r"r=0 outside \[1, 3\]"),
    (lambda: subspace_of(np.eye(3), -2), r"r=-2 outside \[1, 3\]"),
], ids=["as_matrix-ndim", "as_matrix-empty", "basis-ndim", "values-length", "rank-past-dim",
        "empty-dim", "truncated-rank", "merge-rank", "subspace_of-zero", "subspace_of-negative"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError
