"""End-to-end acceptance gate.

Each test checks one shipped guarantee at a pinned tolerance and runtime
budget, and each is deliberately self-contained: data construction,
reference computation, and assertions live together so a failure reads as
a broken guarantee rather than a broken helper. tests/conftest.py turns
the outcomes into one PASSED/FAILED line per criterion at the end of the
run.

Reference values come from independent routes: offline factorizations use
numpy's SVD on the pooled matrix, merges are checked against a direct SVD
of the concatenation, projector comparisons build explicit projectors
(tests/oracles.py), and trend smoothing uses the pool-adjacent-violators
oracle rather than anything shipped in the package.
"""

import csv
import json
import time
import tracemalloc

import numpy as np

from fedpca import accounting
from fedpca.cli import main
from fedpca.datasets import synth
from fedpca.edge import EdgeClient, EnergyBounds
from fedpca.federation import (
    FederationConfig,
    build_tree,
    depth_error_probe,
    run_federation,
)
from fedpca.linalg import merge, subspace_of
from fedpca.metrics import projection_error
from fedpca.privacy import DpConfig, gaussian_mask, min_batch_size, omega_streaming
from oracles import concat_svd, isotonic_fit, projector_distance


def leading_block_distance(u1, u2, spectrum):
    """Projector distance on the leading block, cut at the widest gap.

    Full-rank projectors agree trivially (both are the identity), so the
    comparison that actually pins the factorization down is the invariant
    block above the widest spectral gap.
    """
    k = int(np.argmax(spectrum[:-1] - spectrum[1:])) + 1
    return projector_distance(u1[:, :k], u2[:, :k])


def test_criterion_1_federated_exactness():
    budget = time.perf_counter() + 10.0
    for d in (8, 16, 32):
        n = 8 * d
        for clients in (2, 4, 8):
            rng = np.random.default_rng(97 * d + clients)
            y = rng.standard_normal((d, n))
            u, s, _ = np.linalg.svd(y, full_matrices=False)
            out = run_federation(
                np.array_split(y, clients, axis=1),
                build_tree(clients, 2),
                FederationConfig(rank=d, batch_size=2 * d),
            )
            got = out.estimate.values
            assert got.shape == s.shape
            assert np.max(np.abs(got - s) / s) <= 1e-8
            assert leading_block_distance(out.estimate.basis, u, s) <= 1e-8
    assert time.perf_counter() <= budget


def test_criterion_2_time_independence():
    budget = time.perf_counter() + 30.0
    d, clients, n = 12, 3, 96
    tree = build_tree(clients, 2)
    cfg = FederationConfig(rank=d, batch_size=16)
    for instance in range(3):
        y = np.random.default_rng(100 + instance).standard_normal((d, n))
        spectrum = np.linalg.svd(y, compute_uv=False)
        values, bases = [], []
        for perm in range(21):
            if perm == 0:
                order = np.arange(n)
            else:
                order = np.random.default_rng(
                    1000 * instance + perm
                ).permutation(n)
            out = run_federation(
                np.array_split(y[:, order], clients, axis=1), tree, cfg
            )
            values.append(out.estimate.values)
            bases.append(out.estimate.basis)
        stacked = np.array(values)
        assert np.max(stacked.max(axis=0) - stacked.min(axis=0)) <= 1e-10
        for basis in bases[1:]:
            assert leading_block_distance(bases[0], basis, spectrum) <= 1e-8
    assert time.perf_counter() <= budget


def test_criterion_3_merge_variant_consistency():
    budget = time.perf_counter() + 5.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s1 = subspace_of(rng.standard_normal((12, 9)), 5)
        s2 = subspace_of(rng.standard_normal((12, 8)), 4)
        plain = merge(s1, s2, 6)
        basis, values = concat_svd(s1, s2, 6)
        assert values.shape == plain.values.shape
        assert np.max(np.abs(values - plain.values)) <= 1e-8
        assert projector_distance(basis, plain.basis) <= 1e-8
    assert time.perf_counter() <= budget


def test_criterion_4_depth_error_bound():
    budget = time.perf_counter() + 60.0
    growth = 1.0 + np.sqrt(2.0)
    probes = 0
    for seed in range(5):
        y = synth(32, 256, 1.0, seed)
        spectrum = np.linalg.svd(y, compute_uv=False)
        for depth in (1, 2, 3):
            for r in (4, 8):
                [(measured, bound)] = depth_error_probe(y, fanout=2, depths=[depth], r=r)
                residual = float(np.sqrt(np.sum(spectrum[r:] ** 2)))
                closed_form = (growth ** (depth + 1) - 1.0) * residual
                assert abs(bound - closed_form) <= 1e-12 * closed_form
                assert 0.0 <= measured <= bound
                probes += 1
    assert probes == 30
    assert time.perf_counter() <= budget


def test_criterion_5_noise_calibration():
    budget = time.perf_counter() + 10.0
    d, delta = 20, 0.05

    scale = omega_streaming(DpConfig(1.0, delta), d, 5000)
    mask = gaussian_mask(1000, 1000, scale, np.random.default_rng(0))
    assert mask.size == 10**6
    assert abs(np.var(mask) - scale**2) <= 0.01 * scale**2

    eps_grid = np.geomspace(0.1, 4.0, 10)
    n_grid = np.linspace(500, 5000, 10).astype(int)
    omegas = np.empty((10, 10))
    for i, eps in enumerate(eps_grid):
        dp = DpConfig(float(eps), delta)
        for j, n in enumerate(n_grid):
            omegas[i, j] = omega_streaming(dp, d, int(n))
            assert min_batch_size(dp, d, omegas[i, j]) == int(n)
    assert np.all(np.diff(omegas, axis=0) < 0)  # strictly decreasing in eps
    assert np.all(np.diff(omegas, axis=1) < 0)  # strictly decreasing in n
    assert time.perf_counter() <= budget


def test_criterion_6_utility_trend(tmp_path):
    budget = time.perf_counter() + 300.0
    out = tmp_path / "sweep"
    code = main(
        ["utility-sweep", "--d", "20", "--n", "5000",
         "--alphas", "0.01,1.0", "--epsilons", "0.1,0.5,1.0,2.0,4.0",
         "--reps", "20", "--delta", "0.05", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    sums, counts = {}, {}
    with open(out / "metrics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] != "qa_abs":
                continue
            tags = json.loads(row["params"])
            key = (tags["method"], tags["alpha"], tags["epsilon"])
            sums[key] = sums.get(key, 0.0) + float(row["value"])
            counts[key] = counts.get(key, 0) + 1
    methods = sorted({key[0] for key in sums})
    assert len(methods) == 3
    eps_order = (0.1, 0.5, 1.0, 2.0, 4.0)
    for method in methods:
        means = {}
        for alpha in (0.01, 1.0):
            seq = []
            for eps in eps_order:
                key = (method, alpha, eps)
                assert counts[key] == 20
                means[alpha, eps] = sums[key] / counts[key]
                seq.append(means[alpha, eps])
            smoothed = isotonic_fit(np.array(seq))
            assert np.all(np.diff(smoothed) >= -1e-12)
        assert means[1.0, 4.0] - means[1.0, 0.1] >= 0.1
    assert time.perf_counter() <= budget


def test_criterion_7_rank_adaptive_bracketing():
    budget = time.perf_counter() + 180.0
    d, n, batch = 400, 4000, 50
    for alpha in (0.5, 1.0, 2.0):
        y = synth(d, n, alpha, 13)
        adaptive = EdgeClient(d, 10, batch_size=batch, energy=EnergyBounds())
        visited = []
        for lo in range(0, n, batch):
            adaptive.process_batch(y[:, lo:lo + batch])
            visited.append(adaptive.rank)
        err_adaptive = projection_error(y, adaptive.estimate.basis)
        errors = {}
        for rank in {min(visited), max(visited)}:
            fixed = EdgeClient(d, rank, batch_size=batch)
            for lo in range(0, n, batch):
                fixed.process_batch(y[:, lo:lo + batch])
            errors[rank] = projection_error(y, fixed.estimate.basis)
        assert errors[max(visited)] - 1e-9 <= err_adaptive
        assert err_adaptive <= errors[min(visited)] + 1e-9
    assert time.perf_counter() <= budget


def test_criterion_8_memory_discipline():
    budget = time.perf_counter() + 60.0
    rank, batch, block, rounds = 10, 50, 32, 20

    def run_stream(d, private):
        rng = np.random.default_rng(d + int(private))
        batches = [rng.standard_normal((d, batch)) for _ in range(rounds)]
        tracemalloc.start()
        tracemalloc.reset_peak()
        if private:
            client = EdgeClient(d, rank, batch_size=batch,
                                dp=DpConfig(5.0, 0.1), cov_block_width=block,
                                rng=np.random.default_rng(d))
        else:
            client = EdgeClient(d, rank, batch_size=batch)
        with accounting.track() as tracker:
            for piece in batches:
                client.process_batch(piece)
            client.finalize()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return tracker, peak

    for private in (False, True):
        peaks = {}
        for d in (100, 400):
            tracker, peaks[d] = run_stream(d, private)
            assert tracker.total_events > 0  # the hooks actually fired
            assert max(tracker.by_label.values()) < d * d
            per_column = (batch + block) if private else (rank + batch)
            assert tracker.max_elements <= 2 * d * per_column
        # linear-in-d auxiliary footprint: 4x the dimension must stay far
        # below the 16x a d*d intermediate would show
        assert peaks[400] <= 8 * peaks[100]
    assert time.perf_counter() <= budget


def test_criterion_9_manifest_replay_determinism(tmp_path):
    budget = time.perf_counter() + 120.0
    commands = [
        ["synth", "--d", "6", "--n", "40", "--alpha", "1.0", "--seed", "4"],
        ["run-edge", "--d", "8", "--n", "80", "--rank", "3", "--batch", "40",
         "--epsilon", "1.0", "--delta", "0.1", "--seed", "2",
         "--normalize", "unit-ball"],
        ["run-edge", "--d", "10", "--n", "120", "--rank", "4", "--batch", "20",
         "--lambda", "0.9", "--adaptive", "--cov-block", "4", "--epsilon", "2.0",
         "--delta", "0.05", "--seed", "7", "--normalize", "unit-ball"],
        ["run-federated", "--d", "12", "--n", "150", "--leaves", "4",
         "--rank", "5", "--batch", "25", "--epsilon", "0.5", "--delta", "0.1",
         "--seed", "9", "--policy", "seeded_shuffle"],
        ["utility-sweep", "--d", "6", "--n", "80", "--rank", "2",
         "--alphas", "0.5", "--epsilons", "0.5,1.0", "--reps", "2",
         "--delta", "0.1", "--seed", "3"],
        ["depth-probe", "--d", "16", "--n", "64", "--rank", "4",
         "--fanout", "2", "--depths", "1,2", "--seed", "0"],
    ]
    for idx, argv in enumerate(commands):
        first = tmp_path / f"cmd{idx}" / "one"
        second = tmp_path / f"cmd{idx}" / "two"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["replay", str(first / "manifest.txt"),
                     "--out", str(second)]) == 0
        produced = sorted(p.name for p in first.glob("*.csv"))
        assert produced == sorted(p.name for p in second.glob("*.csv"))
        for name in produced:
            if name == "timings.csv":  # wall clock, host-dependent by design
                continue
            same = (first / name).read_bytes() == (second / name).read_bytes()
            assert same, f"{argv[0]} replay altered {name}"
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("# created")]
        assert strip(first / "manifest.txt") == strip(second / "manifest.txt")
    assert time.perf_counter() <= budget
