import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from fedpca import _blas
from fedpca.datasets import partition_columns
from fedpca.edge import EdgeClient, EnergyBounds
from fedpca.federation import (
    FederationConfig,
    aggregate_once,
    build_tree,
    depth_error_probe,
    run_federation,
)
from fedpca.linalg import SubspaceEstimate, subspace_of
from fedpca.privacy import DpConfig, derive_rng
from oracles import SCHEDULES, interleaving_list, procrustes_align_error, projector_distance


def global_matrix(seed, d, n):
    return np.random.default_rng(seed).standard_normal((d, n))


def split_columns(y, clients):
    return np.array_split(y, clients, axis=1)


def interleaved_root(streams, fanout, cfg, schedule, seed):
    """Root of clients fed one observe() at a time in the oracle's order.

    The leaves are merged in runs of ``fanout``, level by level, without
    going through the library's tree walk.
    """
    clients = [cfg.client(s.shape[0], i) for i, s in enumerate(streams)]
    cursor = [0] * len(streams)
    for i in interleaving_list([s.shape[1] for s in streams], schedule, seed):
        clients[i].observe(streams[i][:, cursor[i]])
        cursor[i] += 1
    assert cursor == [s.shape[1] for s in streams]
    level = [c.finalize() for c in clients]
    while len(level) > 1:
        level = [aggregate_once(level[k : k + fanout], cfg.rank)
                 for k in range(0, len(level), fanout)]
    return level[0]


def assert_every_order_gives_the_federation_root(y, cfg):
    # uneven shares and one empty client, so the interleavings really differ
    streams = [y[:, :37], np.zeros((y.shape[0], 0)), y[:, 37:61], y[:, 61:]]
    tree = build_tree(len(streams), 3)
    # round-robin columns, leaf tasks on one worker, leaf tasks on four
    roots = [run_federation(streams, tree, cfg, k).estimate for k in (None, 1, 4)]
    for schedule in SCHEDULES:
        for seed in (0, 99):
            root = interleaved_root(streams, 3, cfg, schedule, seed)
            for est in roots:
                assert np.array_equal(est.values, root.values)
                assert np.array_equal(est.basis, root.basis)


class TestBuildTree:
    def test_binary_eight_leaves(self):
        t = build_tree(8, 2)
        assert t.depth == 3
        assert tuple(len(lv) for lv in t.levels) == (8, 4, 2, 1)
        assert t.root == 14
        assert len(t.nodes) == 15
        internal = [n for n in t.nodes if not n.is_leaf]
        assert len(internal) == 7
        assert all(len(n.children) == 2 for n in internal)

    def test_ternary_nine_leaves(self):
        t = build_tree(9, 3)
        assert t.depth == 2
        assert tuple(len(lv) for lv in t.levels) == (9, 3, 1)

    def test_underfull_last_group(self):
        t = build_tree(5, 4)
        assert t.depth == 2
        level1 = [t.nodes[i] for i in t.levels[1]]
        assert [len(n.children) for n in level1] == [4, 1]

    def test_single_leaf(self):
        t = build_tree(1, 2)
        assert t.depth == 0
        assert t.root == 0
        assert t.levels == ((0,),)

    @pytest.mark.parametrize("leaves, fanout, depth", [
        (125, 5, 3), (216, 6, 3), (27, 3, 3), (1024, 2, 10)])
    def test_exact_powers(self, leaves, fanout, depth):
        # a floating-point log once put some of these one level off
        t = build_tree(leaves, fanout)
        assert t.depth == depth
        assert tuple(len(lv) for lv in t.levels) == tuple(
            leaves // fanout**k for k in range(depth + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tree(0, 2)
        with pytest.raises(ValueError):
            build_tree(4, 1)


class TestAggregateOnce:
    def test_single_child_truncates(self):
        s = subspace_of(np.diag([3.0, 2.0, 1.0]))
        out = aggregate_once([s], 2)
        assert out.rank == 2
        assert np.allclose(out.values, [3.0, 2.0])

    def test_empty_children_are_neutral(self):
        s = subspace_of(np.diag([3.0, 2.0, 1.0]))
        out = aggregate_once([SubspaceEstimate.empty(3), s, SubspaceEstimate.empty(3)], 3)
        assert np.allclose(out.values, s.values, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_once([], 2)
        with pytest.raises(ValueError):
            aggregate_once([SubspaceEstimate.empty(3), SubspaceEstimate.empty(4)], 2)


class TestRunFederation:
    def test_single_client_equals_edge_client(self):
        y = global_matrix(2, 6, 40)
        tree = build_tree(1, 2)
        cfg = FederationConfig(rank=3, batch_size=10)
        out = run_federation([y], tree, cfg)
        client = EdgeClient(dim=6, rank=3, batch_size=10)
        for t in range(40):
            client.observe(y[:, t])
        ref = client.finalize()
        assert np.array_equal(out.estimate.values, ref.values)
        assert np.array_equal(out.estimate.basis, ref.basis)

    def test_schedules_cannot_change_the_result(self):
        y = global_matrix(3, 10, 90)
        assert_every_order_gives_the_federation_root(y, FederationConfig(rank=4, batch_size=10))

    def test_thread_pool_is_result_identical(self):
        api = _blas._API
        threads = api.get_num_threads() if api else None
        y = global_matrix(4, 8, 80)
        cases = [(split_columns(y, 4), FederationConfig(rank=4, batch_size=10), 4)]
        # round_robin shares are strided views: leaf tasks hand their b-wide
        # slices to the private kernel, which must round them as it rounds
        # the round-robin loop's contiguous column buffer
        y = global_matrix(12, 16, 2000)
        strided = partition_columns(2000, 4, "round_robin").split(y)
        for dp in (None, DpConfig(1.0, 0.1)):
            cases.append((strided, FederationConfig(rank=4, batch_size=250, dp=dp, seed=3), 2))
        for streams, cfg, workers in cases:
            tree = build_tree(len(streams), 2)
            serial = run_federation(streams, tree, cfg)
            pooled = run_federation(streams, tree, cfg, max_workers=workers)
            assert np.array_equal(serial.estimate.values, pooled.estimate.values)
            assert np.array_equal(serial.estimate.basis, pooled.estimate.basis)
        # overlapping one-thread update scopes hand back the caller's count
        if threads is not None:
            assert api.get_num_threads() == threads

    @pytest.mark.parametrize("workers", [None, 2])
    def test_swapping_sibling_streams_changes_no_root_bit(self, workers):
        # at fanout 2 every node has two children, and merge is order-free
        y = global_matrix(13, 10, 160)
        streams = [y[:, :50], y[:, 50:90], y[:, 90:100], y[:, 100:]]
        tree = build_tree(4, 2)
        cfg = FederationConfig(rank=4, batch_size=10)
        out = run_federation(streams, tree, cfg, workers)
        assert tuple(len(level) for level in out.per_level_ranks) == (4, 2, 1)
        want = out.estimate
        for swapped in ([1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]):
            got = run_federation([streams[i] for i in swapped], tree, cfg, workers).estimate
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    def test_empty_stream_is_neutral(self):
        # a failed node's empty stream changes no bit of the root: trailing,
        # with and without DP, and between two leaves without DP. Leaf i
        # draws its noise from stream i, so with DP an empty leaf in the
        # middle shifts every later leaf's noise and their bits by design
        y = global_matrix(5, 10, 90)
        s0, s1, s2 = split_columns(y, 3)
        empty = np.zeros((10, 0))
        cases = [([s0, s1, empty], [s0, s1], None),
                 ([s0, s1, empty, s2], [s0, s1, s2], None),
                 ([s0, s1, empty], [s0, s1], DpConfig(1.0, 0.1))]
        for workers, (streams, kept, dp) in itertools.product((None, 2), cases):
            cfg = FederationConfig(rank=4, batch_size=30, dp=dp, seed=5)
            with_empty = run_federation(streams, build_tree(len(streams), 2), cfg, workers)
            without = run_federation(kept, build_tree(len(kept), 2), cfg, workers)
            assert with_empty.estimate.basis.tobytes() == without.estimate.basis.tobytes()
            assert with_empty.estimate.values.tobytes() == without.estimate.values.tobytes()
            assert with_empty.per_level_ranks[0] == tuple(4 if s.shape[1] else 0 for s in streams)

    def test_private_federation_ignores_schedule(self):
        y = global_matrix(6, 6, 90)
        cfg = FederationConfig(rank=2, batch_size=20, dp=DpConfig(1.0, 0.1), seed=11)
        assert_every_order_gives_the_federation_root(y, cfg)

    def test_private_federation_seed_changes_result(self):
        y = global_matrix(7, 6, 60)
        streams = split_columns(y, 2)
        tree = build_tree(2, 2)
        a = run_federation(
            streams, tree, FederationConfig(rank=2, batch_size=30, dp=DpConfig(1.0, 0.1), seed=0)
        )
        b = run_federation(
            streams, tree, FederationConfig(rank=2, batch_size=30, dp=DpConfig(1.0, 0.1), seed=1)
        )
        assert not np.allclose(a.estimate.values, b.estimate.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("max_workers", [None, 1, 2])
    @pytest.mark.parametrize("col", [0, 47], ids=["full-batch", "partial-batch"])
    def test_non_finite_entry_raises(self, bad, max_workers, col):
        # split and run_federation route the entry unread; the leaf's fold
        # of its batch (column 0) or of its remainder (column 47) rejects it
        y = global_matrix(8, 6, 96)
        y[2, col] = bad
        streams = partition_columns(96, 2).split(y)
        tree = build_tree(2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            run_federation(streams, tree, FederationConfig(rank=2, batch_size=20),
                           max_workers=max_workers)

    def test_stream_count_mismatch(self):
        with pytest.raises(ValueError):
            run_federation(
                [np.ones((4, 8))], build_tree(2, 2), FederationConfig(rank=2)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederationConfig(rank=2, dp=DpConfig(1.0, 0.1))  # seed missing

    def test_config_lists_every_client_setting(self):
        # a client setting the config lacks can never reach a federated leaf
        params = inspect.signature(EdgeClient.__init__).parameters
        settings = set(params) - {"self", "dim", "rng"}
        assert settings == {f.name for f in dataclasses.fields(FederationConfig)} - {"seed"}

    def test_client_carries_every_setting(self):
        cfg = FederationConfig(rank=3, batch_size=12, energy=EnergyBounds(0.02, 0.2, 5),
                               dp=DpConfig(1.0, 0.1), cov_block_width=4, forgetting=0.9,
                               rescale_private=True, seed=7)
        client = cfg.client(8, 2)
        for f in dataclasses.fields(cfg):
            if f.name != "seed":
                assert getattr(client, f.name) == getattr(cfg, f.name)
        assert client.rng.random() == derive_rng(7, 2).random()
        assert FederationConfig(rank=3).client(8).rng is None


class TestDepthErrorProbe:
    def test_exact_rank_data_has_vanishing_error(self):
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        y = u @ np.diag([9.0, 6.0, 3.0]) @ np.linalg.qr(rng.standard_normal((48, 3)))[0].T
        [(measured, bound)] = depth_error_probe(y, fanout=2, depths=[2], r=3)
        assert measured < 1e-8
        assert bound < 1e-8

    def test_bound_holds_on_random_data(self):
        y = global_matrix(9, 16, 64)
        for depth in (1, 2):
            for r in (3, 8):
                [(measured, bound)] = depth_error_probe(y, fanout=2, depths=[depth], r=r)
                assert 0 <= measured <= bound

    def test_measured_matches_padded_procrustes(self):
        # the oracle forms the zero-padded d x n root that the probe avoids
        for seed, (d, n, depth, r) in enumerate([(9, 64, 2, 3), (6, 40, 1, 2), (12, 96, 3, 5)]):
            y = global_matrix(seed, d, n)
            [(measured, _)] = depth_error_probe(y, fanout=2, depths=[depth], r=r)
            level = [subspace_of(b, r) for b in split_columns(y, 2**depth)]
            while len(level) > 1:
                level = [aggregate_once(level[i : i + 2], r) for i in range(0, len(level), 2)]
            est = level[0]
            padded = np.zeros((d, n))
            padded[:, : est.rank] = est.basis * est.values
            want = procrustes_align_error(y, padded)
            assert abs(measured - want) <= 1e-10 * want

    def test_peak_memory_within_twice_the_input(self):
        y = global_matrix(4, 16, 2048)
        depth_error_probe(y[:, :64], fanout=2, depths=[2], r=4)  # first-use imports
        tracemalloc.start()
        try:
            depth_error_probe(y, fanout=2, depths=[2], r=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * y.nbytes

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            depth_error_probe(np.ones((4, 10)), fanout=2, depths=[2], r=2)

    def test_fanout_five_depth_three(self):
        y = global_matrix(10, 6, 250)
        [(measured, bound)] = depth_error_probe(y, fanout=5, depths=[3], r=2)
        assert 0 <= measured <= bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        y = global_matrix(11, 4, 16)
        y[1, 9] = bad
        with pytest.raises(ValueError, match="non-finite"):
            depth_error_probe(y, fanout=2, depths=[1], r=2)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            depth_error_probe(np.ones((4, 8)), fanout=2, depths=[0], r=2)


@pytest.mark.parametrize("call, message", [
    (lambda: run_federation([np.ones((4, 8)), np.ones((3, 8))], build_tree(2, 2),
                            FederationConfig(rank=2)), r"stream 1 has shape \(3, 8\)"),
    (lambda: run_federation([np.ones((4, 8)), np.ones(8)], build_tree(2, 2),
                            FederationConfig(rank=2)), r"stream 1 has shape \(8,\)"),
    (lambda: depth_error_probe(np.ones((4, 8)), fanout=1, depths=[1], r=2),
     "fanout must be at least 2"),
    (lambda: depth_error_probe(np.ones((4, 8)), fanout=2, depths=[1], r=0),
     r"rank 0 outside \[1, 4\]"),
    (lambda: depth_error_probe(np.ones((4, 8)), fanout=2, depths=[1], r=5),
     r"rank 5 outside \[1, 4\]"),
], ids=["stream-rows", "stream-ndim", "probe-fanout", "probe-rank-zero", "probe-rank-past-d"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError
