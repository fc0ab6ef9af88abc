"""Aggregation of client subspaces over a balanced tree.

Clients sit at the leaves of an l-ary tree and stream their columns
independently; aggregators merge child summaries pairwise, left to right,
level by level. Because clients never interact before aggregation, the
global result is invariant to how their observations interleave, which the
schedule machinery here makes directly testable.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ._blas import single_thread
from .edge import EdgeClient, EnergyBounds
from .linalg import SubspaceEstimate, ensure_matrix, merge, subspace_of
from .metrics import procrustes_align_error, residual_rho
from .privacy import DpConfig, derive_rng

SCHEDULES = ("synchronous_rounds", "random_interleave", "adversarial_permutation")


@dataclass(frozen=True)
class TreeNode:
    node_id: int
    children: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class FederationTree:
    """Balanced l-ary merge tree; levels[0] holds the leaf ids in order."""

    leaf_count: int
    fanout: int
    depth: int
    nodes: tuple[TreeNode, ...]
    levels: tuple[tuple[int, ...], ...]

    @property
    def root(self) -> int:
        return self.levels[-1][0]


def build_tree(leaf_count: int, fanout: int) -> FederationTree:
    """Group leaves into runs of ``fanout`` repeatedly until one root remains.

    Depth is ceil(log_fanout(leaf_count)); the last node of a level may be
    under-full. A single leaf is its own root at depth 0.
    """
    if leaf_count < 1:
        raise ValueError("leaf_count must be positive")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    nodes = [TreeNode(i) for i in range(leaf_count)]
    levels = [tuple(range(leaf_count))]
    current = list(range(leaf_count))
    next_id = leaf_count
    while len(current) > 1:
        parents = []
        for start in range(0, len(current), fanout):
            group = tuple(current[start : start + fanout])
            nodes.append(TreeNode(next_id, group))
            parents.append(next_id)
            next_id += 1
        levels.append(tuple(parents))
        current = parents
    tree = FederationTree(
        leaf_count, fanout, len(levels) - 1, tuple(nodes), tuple(map(tuple, levels))
    )
    expected_depth = math.ceil(math.log(leaf_count, fanout)) if leaf_count > 1 else 0
    assert tree.depth == expected_depth or leaf_count == 1
    return tree


@dataclass(frozen=True)
class FederationConfig:
    """Shared client settings plus the observation schedule.

    seed feeds per-client noise generators (required when dp is set);
    schedule_seed drives the seeded interleavings.
    """

    rank: int
    batch_size: int = 50
    energy: Optional[EnergyBounds] = None
    dp: Optional[DpConfig] = None
    cov_block_width: Optional[int] = None
    forgetting: float = 1.0
    schedule: str = "synchronous_rounds"
    schedule_seed: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}"
            )
        if self.dp is not None and self.seed is None:
            raise ValueError("dp federation needs a seed for the noise streams")


@dataclass(frozen=True)
class GlobalEstimate:
    estimate: SubspaceEstimate
    merge_count: int
    per_level_ranks: tuple[tuple[int, ...], ...] = field(default_factory=tuple)


def aggregate_once(children: Sequence[SubspaceEstimate], r: int) -> SubspaceEstimate:
    """Left-to-right merge of child estimates, truncated to rank r.

    Empty children are neutral; a single child is simply truncated.
    """
    if not children:
        raise ValueError("aggregate_once needs at least one child")
    dims = {c.dim for c in children}
    if len(dims) != 1:
        raise ValueError("children live in different ambient dimensions")
    acc = children[0]
    # rank-r merges are too small for a BLAS thread team to pay off
    with single_thread():
        for child in children[1:]:
            acc = merge(acc, child, r)
    return acc.truncated(r)


def _interleaving(lengths: Sequence[int], schedule: str, seed: int) -> Iterator[int]:
    """Client visit order; entry i means 'next unseen column of client i'.

    Yielded lazily, so no list of every column's client is held during a
    run.
    """
    if schedule == "synchronous_rounds":
        for t in range(max(lengths, default=0)):
            for i, n in enumerate(lengths):
                if t < n:
                    yield i
        return
    rng = np.random.default_rng(seed)
    if schedule == "random_interleave":
        tokens = np.repeat(np.arange(len(lengths)), lengths)
        rng.shuffle(tokens)
        for i in tokens:
            yield int(i)
        return
    if schedule == "adversarial_permutation":
        for i in rng.permutation(len(lengths)):
            yield from itertools.repeat(int(i), lengths[int(i)])
        return
    raise ValueError(f"unknown schedule {schedule!r}")


def run_federation(
    streams: Sequence[np.ndarray],
    tree: FederationTree,
    cfg: FederationConfig,
    max_workers: Optional[int] = None,
) -> GlobalEstimate:
    """Stream every client's columns, then aggregate up the tree.

    Each leaf i consumes streams[i] (d x n_i, n_i may be zero) in column
    order; the schedule only decides how observations interleave across
    clients, never the order within one client, so it cannot change the
    result. With max_workers > 1 the independent leaves run on a thread
    pool, which is result-identical to the serial path.
    """
    if len(streams) != tree.leaf_count:
        raise ValueError(
            f"got {len(streams)} streams for {tree.leaf_count} leaves"
        )
    mats = []
    dim = None
    for i, s in enumerate(streams):
        m = np.asarray(s, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"stream {i} must be 2-D")
        if m.shape[1] > 0:
            m = ensure_matrix(m, f"stream {i}")
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise ValueError("streams disagree on the ambient dimension")
        mats.append(m)
    assert dim is not None

    def make_client(i: int) -> EdgeClient:
        rng = derive_rng(cfg.seed, i) if cfg.dp is not None else None
        return EdgeClient(
            dim,
            cfg.rank,
            batch_size=cfg.batch_size,
            energy=cfg.energy,
            dp=cfg.dp,
            cov_block_width=cfg.cov_block_width,
            forgetting=cfg.forgetting,
            rng=rng,
        )

    clients = [make_client(i) for i in range(tree.leaf_count)]

    if max_workers is not None and max_workers > 1:
        def feed(i: int) -> None:
            m = mats[i]
            for t in range(m.shape[1]):
                clients[i].observe(m[:, t])

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(feed, range(tree.leaf_count)))
    else:
        lengths = [m.shape[1] for m in mats]
        cursor = [0] * tree.leaf_count
        for i in _interleaving(lengths, cfg.schedule, cfg.schedule_seed):
            clients[i].observe(mats[i][:, cursor[i]])
            cursor[i] += 1

    estimates: dict[int, SubspaceEstimate] = {
        i: clients[i].finalize() for i in range(tree.leaf_count)
    }
    per_level = [tuple(estimates[i].rank for i in tree.levels[0])]
    merges = 0
    for level in tree.levels[1:]:
        ranks = []
        for node_id in level:
            node = tree.nodes[node_id]
            kids = [estimates[c] for c in node.children]
            estimates[node_id] = aggregate_once(kids, cfg.rank)
            merges += len(kids) - 1
            ranks.append(estimates[node_id].rank)
        per_level.append(tuple(ranks))

    return GlobalEstimate(estimates[tree.root], merges, tuple(per_level))


def depth_error_probe(
    y, fanout: int, depth: int, r: int
) -> tuple[float, float]:
    """Measured global error of a depth-q lossless-data hierarchy vs its bound.

    The matrix is split into fanout**depth equal column blocks, each reduced
    to a rank-r summary, and the summaries are merged up a full tree. The
    measured error aligns the root reconstruction (U * S, zero-padded to the
    input width) with the input over the orthogonal group; the bound is
    ((1 + sqrt(2))**(depth + 1) - 1) times the best rank-r residual.

    Returns:
        (measured, bound).
    """
    m = ensure_matrix(y)
    d, n = m.shape
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} outside [1, {d}]")
    leaves = fanout**depth
    if n % leaves != 0:
        raise ValueError(
            f"leaf count {leaves} must divide the column count {n}"
        )
    width = n // leaves
    level = [
        subspace_of(m[:, i * width : (i + 1) * width], r) for i in range(leaves)
    ]
    while len(level) > 1:
        level = [
            aggregate_once(level[s : s + fanout], r)
            for s in range(0, len(level), fanout)
        ]
    root = level[0]

    padded = np.zeros((d, n))
    if root.rank:
        padded[:, : root.rank] = root.basis * root.values
    measured = procrustes_align_error(m, padded)
    bound = ((1.0 + math.sqrt(2.0)) ** (depth + 1) - 1.0) * residual_rho(m, r)
    return measured, bound
