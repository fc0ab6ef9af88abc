import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpca.linalg import SubspaceEstimate
from fedpca.metrics import (
    REGISTERED_METRICS,
    MetricLog,
    projection_error,
    qa_overlap,
    residual_rho,
)
from oracles import procrustes_align_error, projection_error_squares, rotation_grid_procrustes


class TestResidualRho:
    def test_diagonal_example(self):
        y = np.diag([3.0, 2.0, 1.0])
        assert residual_rho(y, 2) == pytest.approx(1.0, abs=1e-12)
        assert residual_rho(y, 1) == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_zero_at_full_rank(self):
        y = np.random.default_rng(0).standard_normal((4, 9))
        assert residual_rho(y, 4) < 1e-12

    def test_r_zero_is_frobenius_norm(self):
        y = np.random.default_rng(1).standard_normal((5, 7))
        assert residual_rho(y, 0) == pytest.approx(np.linalg.norm(y), abs=1e-10)

    def test_monotone_in_r(self):
        y = np.random.default_rng(2).standard_normal((6, 10))
        vals = [residual_rho(y, r) for r in range(7)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            residual_rho(np.eye(3), 4)

    def test_wide_tail_near_sqrt_eps(self):
        # tail values at 3e-8 and 3e-9 of s_1 sit near sqrt(eps) * s_1,
        # where a Gram-matrix spectrum would know them to no digits
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        v = np.linalg.qr(rng.standard_normal((2048, 16)))[0]
        values = np.concatenate([[1.0, 0.5, 0.25, 0.125], [3e-8] * 6, [3e-9] * 6])
        y = (u * values) @ v.T
        for r in (4, 8):
            want = float(np.sqrt(np.sum(values[r:] ** 2)))
            assert residual_rho(y, r) == pytest.approx(want, rel=1e-6)


class TestProjectionError:
    def test_axis_aligned_example(self):
        y = np.diag([3.0, 2.0])
        u = np.array([[1.0], [0.0]])
        # residual is the e2 column: ||(0,2)||^2 / 2
        assert projection_error(y, u) == pytest.approx(2.0, abs=1e-12)

    def test_zero_when_basis_spans_data(self):
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        y = u @ rng.standard_normal((3, 20))
        assert projection_error(y, u) < 1e-12

    def test_eckart_young_optimality(self):
        # the SVD basis beats any other basis of the same rank
        rng = np.random.default_rng(4)
        y = rng.standard_normal((7, 30))
        u_best = np.linalg.svd(y, full_matrices=False)[0][:, :3]
        best = projection_error(y, u_best)
        for seed in range(5):
            u_other = np.linalg.qr(np.random.default_rng(seed).standard_normal((7, 3)))[0]
            assert best <= projection_error(y, u_other) + 1e-12

    def test_matches_residual_rho(self):
        y = np.random.default_rng(5).standard_normal((6, 15))
        u = np.linalg.svd(y, full_matrices=False)[0][:, :2]
        assert projection_error(y, u) * 15 == pytest.approx(
            residual_rho(y, 2) ** 2, abs=1e-9
        )

    def test_rejects_skew_basis(self):
        with pytest.raises(ValueError):
            projection_error(np.eye(3), np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        y = np.random.default_rng(9).standard_normal((5, 30))
        u = np.linalg.qr(np.random.default_rng(10).standard_normal((5, 2)))[0]
        for r in (0, 2):
            y_bad = y.copy()
            y_bad[3, 17] = bad
            with pytest.raises(ValueError, match="non-finite"):
                projection_error(y_bad, u[:, :r])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_basis(self, bad):
        # a nan deviation from orthonormality fails the check, not passes it
        y = np.random.default_rng(9).standard_normal((5, 30))
        u = np.linalg.qr(np.random.default_rng(10).standard_normal((5, 2)))[0]
        u[3, 1] = bad
        with pytest.raises(ValueError, match="not column-orthonormal"):
            projection_error(y, u)
        with pytest.raises(ValueError, match="not column-orthonormal"):
            SubspaceEstimate(u, np.array([2.0, 1.0]))

    def test_matches_elementwise_squares(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((40, 3000)) * np.linspace(1.0, 0.1, 40)[:, None]
        for r in (0, 1, 5, 20):
            u = np.linalg.svd(y, full_matrices=False)[0][:, :r]
            for cols in (1, 50, 3000):
                want = projection_error_squares(y[:, :cols], u)
                assert projection_error(y[:, :cols], u) == pytest.approx(want, rel=1e-12)

    def test_no_data_sized_temporary(self):
        y = np.random.default_rng(7).standard_normal((100, 10_000))
        u = np.linalg.qr(np.random.default_rng(8).standard_normal((100, 10)))[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            projection_error(y, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * y.nbytes


class TestQaOverlap:
    def test_identical_vectors(self):
        v = np.array([0.6, 0.8])
        assert qa_overlap(v, v) == pytest.approx(1.0)

    def test_sign_flip(self):
        v = np.array([0.6, 0.8])
        assert qa_overlap(v, -v) == pytest.approx(1.0)
        assert qa_overlap(v, -v, signed=True) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert qa_overlap(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            qa_overlap(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestProcrustesAlignError:
    def test_zero_under_exact_rotation(self):
        # the nuclear-norm route squares the norms before cancelling, so
        # an exact zero comes back as sqrt(rounding) ~ 1e-7
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5))
        w = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        assert procrustes_align_error(a, a @ w.T) < 1e-6

    def test_zero_target_gives_source_norm(self):
        a = np.random.default_rng(9).standard_normal((4, 6))
        assert procrustes_align_error(a, np.zeros((4, 6))) == pytest.approx(
            np.linalg.norm(a), abs=1e-10
        )

    def test_matches_rotation_grid_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((4, 2))
        fast = procrustes_align_error(a, b)
        brute = rotation_grid_procrustes(a, b)
        assert fast <= brute + 1e-9
        assert abs(fast - brute) < 1e-3  # grid resolution limits the match

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align_error(np.ones((3, 2)), np.ones((2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_never_exceeds_plain_distance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        assert procrustes_align_error(a, b) <= np.linalg.norm(a - b) + 1e-9


class TestMetricLog:
    def test_registry_enforced(self):
        log = MetricLog("run0")
        with pytest.raises(ValueError):
            log.add("made_up_metric", 1.0)

    def test_non_finite_rejected(self):
        log = MetricLog("run0")
        with pytest.raises(ValueError):
            log.add("rank", float("nan"))

    def test_csv_schema_and_params_encoding(self, tmp_path):
        log = MetricLog("abc123")
        log.add("rank", 4, t=0, client=2, alpha=0.5)
        log.add("merge_count", 3)
        p = tmp_path / "metrics.csv"
        log.write_csv(p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "t", "metric", "value", "params"]
        assert rows[1] == ["abc123", "0", "rank", "4.0", '{"alpha":0.5,"client":2}']
        assert rows[2] == ["abc123", "", "merge_count", "3.0", "{}"]

    def test_params_keys_are_sorted(self):
        log = MetricLog("r")
        log.add("rank", 1, zebra=1, apple=2)
        assert log.rows()[0].params == '{"apple":2,"zebra":1}'

    def test_thread_safety(self):
        import threading

        log = MetricLog("r")

        def worker():
            for _ in range(500):
                log.add("rank", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log.rows()) == 4000

    def test_registry_contains_every_emitted_metric(self):
        for name in (
            "rank",
            "reconstruction_error",
            "global_value",
            "qa_signed",
            "qa_abs",
            "measured_error",
            "error_bound",
            "within_bound",
            "runtime_s",
        ):
            assert name in REGISTERED_METRICS


@pytest.mark.parametrize("call, message", [
    (lambda: projection_error(np.ones((3, 4)), np.eye(4)), "basis rows must match"),
    (lambda: projection_error(np.ones((3, 4)), np.ones(3)), "basis rows must match"),
    (lambda: qa_overlap([1.0, 0.0], [1.0, 0.0, 0.0]), "vectors differ in length"),
], ids=["basis-rows", "basis-ndim", "overlap-length"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError
