import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpca import accounting
from fedpca.datasets import synth_gaussian_cov
from fedpca.edge import _new_direction
from fedpca.federation import FederationConfig, build_tree, run_federation
from fedpca.linalg import (
    ORTHO_TOL,
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

    @pytest.mark.parametrize("d", [0, 1, 5])
    def test_hand_built_empty_basis_is_valid(self, d):
        s = SubspaceEstimate(np.zeros((d, 0)), np.zeros(0))
        assert s.rank == 0 and s.dim == d

    def test_rejects_non_orthonormal(self):
        # the negative one breaks the sign rule too: the check runs before signing
        for sign in (1.0, -1.0):
            basis = np.full((4, 2), sign)
            with pytest.raises(ValueError, match="not column-orthonormal"):
                SubspaceEstimate(basis, np.array([2.0, 1.0]))
            assert np.all(basis == sign)

    def test_rejects_non_finite_basis(self):
        basis = -np.eye(3)[:, :2]
        basis[2, 1] = np.nan
        with pytest.raises(ValueError, match="not column-orthonormal"):
            SubspaceEstimate(basis, np.array([2.0, 1.0]))

    def test_flipped_basis_is_stored_signed_in_a_copy(self):
        signed = truncated_svd(np.random.default_rng(4).standard_normal((7, 7)), 4).basis
        flipped = signed * np.array([-1.0, 1.0, -1.0, -1.0])
        before = flipped.tobytes()
        s = SubspaceEstimate(flipped, np.array([4.0, 3.0, 2.0, 1.0]))
        assert s.basis.tobytes() == signed.tobytes()
        assert flipped.tobytes() == before
        assert not np.shares_memory(s.basis, flipped)

    @pytest.mark.parametrize("d", [400, 100, 20])
    def test_lapack_factor_is_stored_with_truncated_svds_bytes(self, d):
        # LAPACK's own column signs, at the benchmark's block summary shapes
        y = np.random.default_rng(d).standard_normal((d, 50))
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        want = truncated_svd(y, s.size).basis
        assert SubspaceEstimate(u, s).basis.tobytes() == want.tobytes()

    def test_compares_by_identity(self):
        # value equality would compare the arrays, which raises ValueError for
        # two distinct estimates, and leave them unhashable
        basis, values = np.eye(4)[:, :2], np.array([2.0, 1.0])
        y = np.random.default_rng(6).standard_normal((6, 40))
        tree, cfg = build_tree(2, 2), FederationConfig(rank=2, batch_size=10)
        roots = [run_federation([y[:, :20], y[:, 20:]], tree, cfg, 1) for _ in range(2)]
        for one, two in ((SubspaceEstimate(basis, values), SubspaceEstimate(basis, values)), roots):
            assert one != two
            assert one == one and two == two
            assert one in [one]
            assert len({one, two}) == 2

    def test_signed_basis_is_stored_uncopied(self):
        # every kernel output is signed, so building its estimate costs no copy
        basis = truncated_svd(np.random.default_rng(5).standard_normal((7, 7)), 4).basis
        assert SubspaceEstimate(basis, np.array([4.0, 3.0, 2.0, 1.0])).basis is basis

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
        out = merge(zero, zero, 2)
        assert out.rank == 0 and out.dim == 4
        assert out.basis.shape == (4, 0)

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
        # the benchmark's shapes, which TestMergeProjection's ranks do not
        # reach: est (10 columns) trails the 50-column summary, on the
        # projection route at d = 400 and the panel route at d = 100 and 20
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((d, 60))
        est = subspace_of(y[:, :10], 10)
        u, s, _ = np.linalg.svd(y[:, 10:], full_matrices=False)
        raw = SubspaceEstimate(u, s)  # built from LAPACK's signs
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
        d=st.integers(1, 30),
        r1=st.integers(1, 12),
        r2=st.integers(1, 12),
        r=st.integers(1, 12),
        kind=st.sampled_from(["gaussian", "low rank", "small integers"]),
        seed=st.integers(0, 10_000),
    )
    def test_summaries_follow_the_sign_convention(self, d, r1, r2, r, kind, seed):
        # every basis follows the loop oracle's sign rule; small integers
        # give entries tied in magnitude
        r = min(r, d)
        rng = np.random.default_rng(seed)

        def block(cols):
            if kind == "low rank":
                return rng.standard_normal((d, 1)) @ rng.standard_normal((1, cols))
            if kind == "small integers":
                return rng.integers(-1, 2, (d, cols)).astype(np.float64)
            return rng.standard_normal((d, cols))

        s1, s2 = subspace_of(block(r1), r1), subspace_of(block(r2))
        for est in (s1, s2, merge(s1, s2, r)):
            signed = est.basis.copy()
            fix_signs_loop(signed)
            assert signed.tobytes() == est.basis.tobytes()

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
        # 2 (4 + 6) > 19: the panel route
        s1, s2 = random_estimate(1, 19, 4), random_estimate(2, 19, 6)
        with accounting.track() as tracker:
            merge(s1, s2, 5)
        assert tracker.total_events == 3
        assert tracker.by_label == {"merge.concat": 190, "merge.left": 190, "merge.basis": 95}

    def test_projection_notes_residual_core_factor_and_basis(self):
        # 2 (4 + 6) <= 20: the narrower summary's residual (d x 4), the
        # square core and its left factor, and the basis
        s1, s2 = random_estimate(1, 20, 4), random_estimate(2, 20, 6)
        with accounting.track() as tracker:
            merge(s1, s2, 5)
        assert tracker.total_events == 4
        assert tracker.by_label == {
            "merge.residual": 80, "merge.core": 100, "merge.factor": 100, "merge.basis": 100,
        }

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

    def test_temporary_argument_is_freed_before_the_svd(self, monkeypatch):
        # 2 (4 + 6) > 19: the panel route, which drops its inputs once they
        # are copied; the projection route keeps the wider basis to the end
        s1 = random_estimate(1, 19, 4)
        refs = []

        def temporary():
            s = random_estimate(2, 19, 6)
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


class TestMergeProjection:
    """The route for 2 (r1 + r2) <= d: the narrower summary projected off the wider one."""

    KINDS = ["generic", "inside", "one column inside", "identical", "zero value", "kappa 1e8"]

    @staticmethod
    def _pair(kind, d, wide_rank, narrow_rank, rng):
        """A wider and a narrower summary in dimension d, related as kind says."""
        wide = truncated_svd(rng.standard_normal((d, d)), wide_rank)
        values = np.sort(rng.uniform(0.1, 3.0, narrow_rank))[::-1]
        basis = truncated_svd(rng.standard_normal((d, d)), narrow_rank).basis
        if kind == "inside":  # the residual off span(wide) is zero
            rotation = np.linalg.qr(rng.standard_normal((wide_rank, narrow_rank)))[0]
            basis = wide.basis @ rotation
        elif kind == "one column inside":
            cols = rng.standard_normal((d, narrow_rank))
            cols[:, 0] = wide.basis @ rng.standard_normal(wide_rank)
            basis = np.linalg.qr(cols)[0]
        elif kind == "identical":
            return wide, wide
        elif kind == "zero value":  # as adjust_rank appends a direction
            basis[:, -1] = _new_direction(basis[:, :-1])
            values[-1] = 0.0
        elif kind == "kappa 1e8":
            wide = SubspaceEstimate(wide.basis, np.logspace(0, -4, wide_rank))
            values = np.logspace(-2, -8, narrow_rank)
        return wide, SubspaceEstimate(basis, values)

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        wide_rank=st.integers(1, 8),
        narrow_rank=st.integers(1, 8),
        offset=st.sampled_from([9, 1, 0, -1]),  # d - 2 (r1 + r2): below, at, one past
        r=st.integers(1, 16),
        scale=st.sampled_from([1.0, 1e-150, 1e150]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_direct_svd_of_the_concatenation(
        self, kind, wide_rank, narrow_rank, offset, r, scale, seed
    ):
        narrow_rank = min(narrow_rank, wide_rank)
        if kind == "identical":
            narrow_rank = wide_rank
        d = 2 * (wide_rank + narrow_rank) + offset
        rng = np.random.default_rng(seed)
        wide, narrow = self._pair(kind, d, wide_rank, narrow_rank, rng)
        wide, narrow = wide.scaled(scale), narrow.scaled(scale)
        r = min(r, d)
        eps = np.finfo(np.float64).eps
        out = merge(wide, narrow, r)
        basis, values = concat_svd(wide, narrow, r)
        s1 = values[0]
        assert out.rank == values.size
        assert np.max(np.abs(out.values - values)) <= 64 * eps * s1
        gram = out.basis.T @ out.basis
        assert np.max(np.abs(gram - np.eye(out.rank))) <= ORTHO_TOL * d
        # the whole combined span, whose gap to the pruned rest is its
        # smallest value: a perturbation of d * eps * s_1 turns it by at
        # most about that over the gap (measured: up to 2.1 times)
        full = merge(wide, narrow, d)
        want, kept = concat_svd(wide, narrow, d)
        assert projector_distance(full.basis, want) <= 16 * d * eps * s1 / kept[-1]

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        wide_rank=st.integers(1, 12),
        narrow_rank=st.integers(1, 12),
        offset=st.integers(-12, 12),  # d - 2 (r1 + r2): the panel route below 0
        r=st.integers(1, 24),
        seed=st.integers(0, 10_000),
    )
    # panel-route pairs whose bits follow the leading summary's signs
    # unless every estimate is signed when it is built
    @example(kind="kappa 1e8", wide_rank=7, narrow_rank=4, offset=-2, r=12, seed=1028)
    @example(kind="one column inside", wide_rank=8, narrow_rank=8, offset=-12, r=12, seed=9783)
    def test_input_signs_change_no_bit(self, kind, wide_rank, narrow_rank, offset, r, seed):
        # estimates built from flipped columns of either input or both merge
        # to the bits of the signed inputs on both routes, in both argument
        # orders, so either summary may lead, by its leading value, or trail
        narrow_rank = min(narrow_rank, wide_rank)
        if kind == "identical":
            narrow_rank = wide_rank
        d = max(2 * (wide_rank + narrow_rank) + offset, wide_rank)
        rng = np.random.default_rng(seed)
        wide, narrow = self._pair(kind, d, wide_rank, narrow_rank, rng)
        r = min(r, d)

        def signed(est):
            basis = est.basis.copy()
            fix_signs_loop(basis)
            return SubspaceEstimate(basis, est.values)

        def flipped(est):
            flips = np.where(rng.random(est.rank) < 0.5, -1.0, 1.0)
            flips[rng.integers(est.rank)] = -1.0
            return SubspaceEstimate(est.basis * flips, est.values)

        want = merge(signed(wide), signed(narrow), r)
        wide2, narrow2 = flipped(wide), flipped(narrow)
        for one, two in ((wide2, narrow), (wide, narrow2), (wide2, narrow2)):
            for got in (merge(one, two, r), merge(two, one, r)):
                assert got.basis.tobytes() == want.basis.tobytes()
                assert got.values.tobytes() == want.values.tobytes()


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
