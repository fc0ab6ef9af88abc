import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpca import datasets
from fedpca.datasets import (
    GENERATE_BLOCK,
    DataError,
    StreamPartition,
    load_csv,
    partition_columns,
    save_matrix_csv,
    synth,
    synth_gaussian_cov,
    unit_ball_factor,
)
from oracles import (
    economy_qr,
    gaussian_cov_factors,
    synth_gaussian_cov_reference,
    synth_reference,
)


class TestSynth:
    def test_spectrum_is_exact_power_law(self):
        y = synth(3, 10, 1.0, 0)
        got = np.linalg.svd(y, compute_uv=False)
        assert np.max(np.abs(got - [1.0, 0.5, 1.0 / 3.0])) < 1e-10

    def test_alpha_zero_is_flat(self):
        y = synth(4, 6, 0.0, 1)
        assert np.max(np.abs(np.linalg.svd(y, compute_uv=False) - 1.0)) < 1e-10

    def test_bit_identical_across_calls(self):
        a = synth(6, 20, 0.5, 42)
        b = synth(6, 20, 0.5, 42)
        assert np.array_equal(a, b)

    def test_seed_changes_factors_not_spectrum(self):
        a = synth(5, 8, 1.0, 0)
        b = synth(5, 8, 1.0, 1)
        assert not np.allclose(a, b)
        sa = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(sa - np.linalg.svd(b, compute_uv=False))) < 1e-10

    def test_wide_and_tall_shapes(self):
        assert synth(4, 9, 1.0, 0).shape == (4, 9)
        assert synth(9, 4, 1.0, 0).shape == (9, 4)

    def test_validation(self):
        # both generators check their arguments by the same rules
        for generate in (synth, synth_gaussian_cov):
            with pytest.raises(ValueError, match=r"shape must be positive, got \(0, 5\)"):
                generate(0, 5, 1.0, 0)
            with pytest.raises(ValueError, match=r"shape must be positive, got \(5, 0\)"):
                generate(5, 0, 1.0, 0)
            with pytest.raises(ValueError, match="alpha must be >= 0, got -0.5"):
                generate(5, 5, -0.5, 0)
            with pytest.raises(ValueError, match="alpha must be finite"):
                generate(5, 5, float("inf"), 0)

    @pytest.mark.parametrize(
        "generate, reference",
        [(synth, synth_reference), (synth_gaussian_cov, synth_gaussian_cov_reference)],
        ids=["svd", "gauss"],
    )
    @pytest.mark.parametrize(
        "d, n", [(1, 1), (3, 10), (10, 3), (12, 150), (100, 2600), (256, 300)]
    )
    def test_bits_match_reference(self, generate, reference, d, n):
        # (100, 2600) runs three products, one block past 1.5 * GENERATE_BLOCK
        assert np.array_equal(generate(d, n, 1.0, 5), reference(d, n, 1.0, 5))


class TestSynthGaussianCov:
    def test_sample_covariance_converges(self):
        d, n = 4, 100_000
        y = synth_gaussian_cov(d, n, alpha=1.0, seed=3)
        sample_cov = y @ y.T / n
        lam = np.arange(1, d + 1, dtype=np.float64) ** -1.0
        # rebuild the population covariance from the same seeded basis
        basis, _ = economy_qr(np.random.default_rng(3).standard_normal((d, d)))
        pop_cov = (basis * lam) @ basis.T
        rel = np.linalg.norm(sample_cov - pop_cov) / np.linalg.norm(pop_cov)
        assert rel < 0.05

    def test_mean_is_near_zero(self):
        d, n = 4, 100_000
        y = synth_gaussian_cov(d, n, alpha=1.0, seed=4)
        lam = np.arange(1, d + 1, dtype=np.float64) ** -1.0
        assert np.linalg.norm(y.mean(axis=1)) <= 4 * np.sqrt(lam.sum() / n)

    def test_deterministic(self):
        a = synth_gaussian_cov(3, 50, 0.5, seed=9)
        b = synth_gaussian_cov(3, 50, 0.5, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "d, n",
        [(5, 1), (20, GENERATE_BLOCK - 1), (20, GENERATE_BLOCK), (20, GENERATE_BLOCK + 1),
         (20, GENERATE_BLOCK + GENERATE_BLOCK // 2 - 1), (1, 5 * GENERATE_BLOCK + 3)],
    )
    def test_equals_one_shot_product(self, d, n):
        # one block below 1.5 * GENERATE_BLOCK columns; with d = 1 every
        # entry is a single product, so the blocks cannot change it
        shaper, z = gaussian_cov_factors(d, n, 1.0, 7)
        assert np.array_equal(synth_gaussian_cov(d, n, 1.0, 7), shaper @ z)

    @pytest.mark.parametrize(
        "d, n", [(20, GENERATE_BLOCK + GENERATE_BLOCK // 2), (100, 3 * GENERATE_BLOCK + 17)]
    )
    def test_blocks_match_one_shot_product_to_rounding(self, d, n):
        # a block may take another BLAS kernel than the whole product; each
        # entry is then a length-d dot product summed in another order
        shaper, z = gaussian_cov_factors(d, n, 1.0, 8)
        diff = np.abs(synth_gaussian_cov(d, n, 1.0, 8) - shaper @ z)
        assert np.all(diff <= d * np.finfo(np.float64).eps * (np.abs(shaper) @ np.abs(z)))

    def test_peak_memory_is_one_copy(self):
        synth_gaussian_cov(2, 2, 1.0, 0)  # modules numpy imports on first use
        tracemalloc.start()
        try:
            y = synth_gaussian_cov(100, 10_000, 1.0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * y.nbytes


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        y = np.random.default_rng(5).standard_normal((6, 11))
        p = tmp_path / "y.csv"
        save_matrix_csv(p, y)
        back = load_csv(p)
        assert np.array_equal(back, y)

    def test_header_detected_and_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        for text in (
            "f1,f2,f3\n1.0,2.0,3.0\n4.0,5.0,6.0\n",
            "\ufefff1,f2,f3\r\n1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n",  # BOM, header, CRLF
            "f1,f2,f3\r1.0,2.0,3.0\r4.0,5.0,6.0\r",  # CR alone
            '"f1","f2","f3"\n"1.0","2.0",3.0\n4.0, 5.0 ," 6.0"\n',  # quoted and padded cells
            # blank, whitespace-only, comma-only and empty-quoted lines
            "f1,f2,f3\n\n   \n,,\n1.0,2.0,3.0\n , ,\t\n\"\",\"\"\n4.0,5.0,6.0\n\n",
        ):
            p.write_bytes(text.encode("utf-8"))
            got = load_csv(p)
            assert got.shape == (2, 3), text
            assert np.array_equal(got, [[1, 2, 3], [4, 5, 6]]), text

    def test_row_orientation_transposes(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        cols = load_csv(p, orientation="columns")
        rows = load_csv(p, orientation="rows")
        assert cols.shape == (3, 2)
        assert rows.shape == (2, 3)
        assert np.array_equal(rows, cols.T)
        assert rows.flags.c_contiguous

    def test_unit_ball_normalization(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("3,0.1\n4,0.1\n")
        x = load_csv(p)
        got = x / unit_ball_factor(x)
        assert np.max(np.linalg.norm(got, axis=0)) <= 1.0 + 1e-15
        assert np.allclose(got[:, 0], [0.6, 0.8])

    def test_ragged_rows_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        for text, line in (
            ("1,2,3\n4,5\n", 2),
            ("h1,h2,h3\n1,2,3\n\n,,\n4,5\n", 5),
            ("1,2,3\n" * 3000 + "4,5\n" + "1,2,3\n" * 10, 3001),
        ):
            p.write_text(text)
            with pytest.raises(DataError, match=f"line {line} has 2 cells, expected 3$"):
                load_csv(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "bad2.csv"
        for text, line in (
            ("1,2\n3,oops\n", 2),
            ("\nf1,f2\n1,2\n", 2),  # only line 1 can be a header, not the first line with cells
            ("1,2\n" * 3000 + "3,oops\n" + "1,2\n" * 10, 3001),
            # Python's float reads these two cells, numpy's parser does not
            ("1,2\n3,1_000\n", 2),
            ("1,2\n3,١\n", 2),
            # the first fault in file order, though line 3 is not UTF-8
            ("1,2\n3,oops\n\udce9,1\n", 2),
            # Python's float reads 1_0, so line 1 is data, not a header
            ("1_0,2\n3,4\n", 1),
            # a trailing comma leaves an empty cell on the first line that has one
            ("1,2,\n3,4,\n", 1),
        ):
            p.write_bytes(text.encode("utf-8", "surrogateescape"))
            with pytest.raises(DataError, match=f"non-numeric cell on line {line}$"):
                load_csv(p)

    @pytest.mark.parametrize("orientation", ["columns", "rows"])
    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_cell_reports_its_line(self, tmp_path, cell, orientation):
        p = tmp_path / "nf.csv"
        p.write_text(f"a,b\n1,2\n\n \n,,\n3,{cell}\n5,nan\n")
        with pytest.raises(DataError, match="non-finite cell on line 6$"):
            load_csv(p, orientation)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        for text in ("", "\n \n,,\n"):
            p.write_text(text)
            with pytest.raises(DataError, match="no numeric rows"):
                load_csv(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "onlyheader.csv"
        for text in ("a,b,c\n", "\ufeffa,b,c\r\n\r\n"):
            p.write_bytes(text.encode("utf-8"))
            with pytest.raises(DataError, match="no numeric rows"):
                load_csv(p)

    def test_undecodable_file_raises_the_decoding_error(self, tmp_path):
        # the decoder reads ahead in chunks, but the line is named as it is read,
        # even a line of only commas that carries no cell
        p = tmp_path / "latin1.csv"
        for data, line in ((b"1,2\n\xe9,3\n", 2), (b"1,2\n" * 5000 + b"\xe9", 5001),
                           (b"\xef\xbb\xbfa,b\n" + b"1,2\n" * 3000 + b"3,\xe9\n", 3002),
                           (b"1,2\n\xff,,\n3,4\n", 2)):
            p.write_bytes(data)
            with pytest.raises(DataError, match=f"latin1.csv: line {line} is not UTF-8$"):
                load_csv(p)

    @pytest.mark.parametrize("text", ["c0,c1\n1,2\n3,4\n", "1,2\n3,4\n"])
    def test_file_opened_once(self, tmp_path, monkeypatch, text):
        p = tmp_path / "once.csv"
        p.write_text(text)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(datasets, "open", counting_open, raising=False)
        assert np.array_equal(load_csv(p), [[1, 2], [3, 4]])
        assert opened == [p]

    def test_bom_tolerated(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert load_csv(p).shape == (2, 2)

    @pytest.mark.parametrize("shape", [(40, 3000), (3000, 40)])
    @pytest.mark.parametrize("orientation, bound", [("columns", 2.0), ("rows", 2.5)])
    def test_peak_memory(self, tmp_path, shape, orientation, bound):
        # a rows file is parsed as n x d and copied once into d x n
        x = np.random.default_rng(2).standard_normal(shape)
        p = tmp_path / "m.csv"
        save_matrix_csv(p, x if orientation == "columns" else x.T)
        load_csv(p, orientation)  # modules numpy imports on first use
        tracemalloc.start()
        try:
            got = load_csv(p, orientation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, x)
        assert peak <= bound * got.nbytes

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        data=st.data(),
        header=st.booleans(),
        blanks=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(["", "  ", ",,", " , ,\t"]))),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
        orientation=st.sampled_from(["columns", "rows"]),
    )
    def test_written_matrix_reads_back(self, tmp_path_factory, shape, data, header, blanks,
                                       newline, bom, orientation):
        # subnormals, the largest finite values and signed zeros, among others
        cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e308, -0.0])
        x = np.array(data.draw(st.lists(st.lists(cell, min_size=shape[1], max_size=shape[1]),
                                        min_size=shape[0], max_size=shape[0])))
        rows = (x if orientation == "columns" else x.T).tolist()
        lines = [",".join(map(repr, row)) for row in rows]
        for at, blank in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), blank)
        if header:  # line 1 only: a header below a blank line is an error
            lines.insert(0, ",".join(f"c{j}" for j in range(len(rows[0]))))
        p = tmp_path_factory.mktemp("round-trip") / "x.csv"
        p.write_bytes((b"\xef\xbb\xbf" if bom else b"") + newline.join(lines).encode())
        got = load_csv(p, orientation)
        assert np.array_equal(got, x)
        assert got.tobytes() == x.tobytes()  # bit for bit, signed zeros included


class TestNormalizeUnitBall:
    def test_shrinks_large_columns(self):
        x = np.array([[3.0, 0.0], [4.0, 1.0]])
        factor = unit_ball_factor(x)
        assert factor == 5.0
        assert np.allclose((x / factor)[:, 0], [0.6, 0.8])

    def test_norms_never_exceed_one(self):
        # plain division by the largest norm leaves it one ulp above 1 at
        # seed 13, and at 12 more of these 300 seeds
        for seed in range(300):
            x = synth_gaussian_cov(20, 1000, 1.0, seed)
            factor = unit_ball_factor(x)
            assert np.max(np.linalg.norm(x / factor, axis=0)) <= 1.0
            assert factor >= np.max(np.linalg.norm(x, axis=0))

    def test_never_scales_up(self):
        x = np.array([[0.1, 0.0], [0.0, 0.2]])
        factor = unit_ball_factor(x)
        assert factor == 1.0
        assert np.array_equal(x / factor, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            unit_ball_factor(x)

    def test_overflowing_norm_rejected(self):
        # every entry is finite, but the sum of squares is not
        with pytest.raises(ValueError, match="past the float range"):
            unit_ball_factor(np.full((2, 3), 1e200))

    def test_peak_memory_is_one_block(self):
        # the scaled norms are checked one d x GENERATE_BLOCK block at a
        # time; the allowance covers einsum's 8192-element buffer and the
        # norm vectors
        x = 3.0 * synth_gaussian_cov(100, 2000, 1.0, 5)
        unit_ball_factor(x[:, :2])  # modules numpy imports on first use
        tracemalloc.start()
        try:
            factor = unit_ball_factor(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor > 1.0
        assert peak <= x.itemsize * 100 * GENERATE_BLOCK + 128 * 1024


class TestPartitionColumns:
    def test_contiguous_balanced(self):
        p = partition_columns(10, 3, "contiguous")
        sizes = [len(a) for a in p.assignments]
        assert sizes == [4, 3, 3]
        assert p.assignments[0].tolist() == [0, 1, 2, 3]

    def test_round_robin(self):
        p = partition_columns(7, 3, "round_robin")
        assert [a.tolist() for a in p.assignments] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_seeded_shuffle_partitions_and_sorts(self):
        p = partition_columns(12, 4, "seeded_shuffle", seed=1)
        all_idx = sorted(i for a in p.assignments for i in a)
        assert all_idx == list(range(12))
        for a in p.assignments:
            assert list(a) == sorted(a)
        shares = [a.tolist() for a in p.assignments]
        q = partition_columns(12, 4, "seeded_shuffle", seed=1)
        assert [a.tolist() for a in q.assignments] == shares
        r = partition_columns(12, 4, "seeded_shuffle", seed=2)
        assert [a.tolist() for a in r.assignments] != shares

    def test_no_client_left_empty_when_enough_columns(self):
        for policy in ("contiguous", "round_robin", "seeded_shuffle"):
            p = partition_columns(4, 3, policy)
            assert all(len(a) >= 1 for a in p.assignments)

    def test_more_clients_than_columns(self):
        p = partition_columns(2, 4, "contiguous")
        sizes = [len(a) for a in p.assignments]
        assert sum(sizes) == 2 and len(sizes) == 4

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            partition_columns(5, 2, "alphabetical")

    def test_split_materializes_blocks(self):
        y = np.arange(12.0).reshape(2, 6)
        p = partition_columns(6, 2, "round_robin")
        blocks = p.split(y)
        assert np.array_equal(blocks[0], y[:, [0, 2, 4]])
        assert np.array_equal(blocks[1], y[:, [1, 3, 5]])

    def test_split_views_contiguous_shares(self):
        y = np.arange(20.0).reshape(2, 10)
        p = StreamPartition(10, ((0, 1, 2), (), (3,), (4, 5, 6, 7, 8, 9)))
        blocks = p.split(y)
        assert [b.shape[1] for b in blocks] == [3, 0, 1, 6]
        for block, idx in zip(blocks, p.assignments):
            assert np.array_equal(block, y[:, list(idx)])
            if len(idx):
                assert np.shares_memory(block, y)
        for block in partition_columns(10, 3, "contiguous").split(y):
            assert np.shares_memory(block, y)

    def test_split_copies_scattered_shares(self):
        # round_robin shares are evenly spaced: strided views, like contiguous ones
        y = np.arange(40.0).reshape(2, 20)
        for policy, views in (("round_robin", True), ("seeded_shuffle", False)):
            p = partition_columns(20, 3, policy, seed=1)
            for block, idx in zip(p.split(y), p.assignments):
                assert np.array_equal(block, y[:, idx])
                assert np.shares_memory(block, y) == views
        p = StreamPartition(7, ((0, 3, 6), (1, 2, 4, 5)))
        assert [np.shares_memory(b, y) for b in p.split(y[:, :7])] == [True, False]

    def test_partition_validation_messages(self):
        # empty shares anywhere, and a later share starting below an earlier one
        StreamPartition(5, ((), (3, 4), (), (0, 1, 2), ()))
        StreamPartition(0, ((), ()))
        with pytest.raises(ValueError, match="strictly increasing"):
            StreamPartition(4, ((), (0, 2), (3, 1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            StreamPartition(3, ((0, 0, 1, 2),))
        with pytest.raises(ValueError, match="partition range"):
            StreamPartition(3, ((0, 1), (3,)))
        with pytest.raises(ValueError, match="partition range"):
            StreamPartition(3, ((-1, 0, 1, 2),))
        with pytest.raises(ValueError, match="overlap"):
            StreamPartition(3, ((0, 1), (1, 2)))

    @pytest.mark.parametrize("share", [(0.5, 1), (0.0, 1.0), (False, True)])
    def test_partition_rejects_non_integer_indices(self, share):
        # 0.5 was once truncated to 0, and split then failed on it
        with pytest.raises(ValueError, match="integers"):
            StreamPartition(3, (share, (2,)))

    def test_partition_converts_shares_to_int64_arrays(self):
        # an empty share is valid whatever its dtype; () converts to float64
        p = StreamPartition(4, ((), [0, 1], np.empty(0), np.array([2, 3], np.int32)))
        assert all(a.dtype == np.int64 and a.ndim == 1 for a in p.assignments)
        assert [a.tolist() for a in p.assignments] == [[], [0, 1], [], [2, 3]]

    @pytest.mark.parametrize("policy", ["contiguous", "round_robin", "seeded_shuffle"])
    def test_partition_holds_eight_bytes_per_column(self, policy):
        # the fed-private shape; tuples of Python ints held 6.1 MiB here
        n, clients = 160_000, 32
        partition_columns(clients, clients, policy)  # loads numpy's lazy imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = partition_columns(n, clients, policy)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 8 * n + 64 * 1024
        assert len(p.assignments) == clients

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            StreamPartition(4, ((0, 1), (1, 2, 3)))  # overlap
        with pytest.raises(ValueError):
            StreamPartition(4, ((0, 1), (3,)))  # missing index 2
        with pytest.raises(ValueError):
            StreamPartition(4, ((1, 0), (2, 3)))  # not increasing

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        clients=st.integers(1, 8),
        policy=st.sampled_from(["contiguous", "round_robin", "seeded_shuffle"]),
        seed=st.integers(0, 100),
    )
    def test_every_policy_partitions_exactly(self, n, clients, policy, seed):
        p = partition_columns(n, clients, policy, seed)
        seen = [i for a in p.assignments for i in a]
        assert sorted(seen) == list(range(n))
        assert len(p.assignments) == clients
        for a in p.assignments:
            assert list(a) == sorted(a)


@pytest.mark.parametrize("call, message", [
    # the orientation is checked before the file is opened
    (lambda: load_csv("unused.csv", orientation="sideways"), "unknown orientation 'sideways'"),
    (lambda: partition_columns(4, 2).split(np.ones((3, 5))), "matrix has 5 columns, expected 4"),
    (lambda: partition_columns(-1, 2), "n must be non-negative"),
], ids=["orientation", "split-columns", "negative-n"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError
