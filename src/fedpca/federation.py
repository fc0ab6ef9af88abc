"""Aggregation of client subspaces over a balanced tree.

Clients sit at the leaves of an l-ary tree and stream their columns
independently; aggregators merge child summaries pairwise, left to right,
level by level. Because clients never interact before aggregation, the
global result is invariant to how their observations interleave; the tests
check this by replaying seeded interleavings against run_federation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from ._blas import single_thread
from .edge import EdgeClient, EnergyBounds
from .linalg import SubspaceEstimate, as_matrix, merge, subspace_of
from .metrics import residual_rho
from .privacy import DpConfig, derive_rng


@dataclass(frozen=True)
class TreeNode:
    children: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class FederationTree:
    """Balanced l-ary merge tree; levels[0] holds the leaf ids in order.

    A node's id is its index in nodes; the tree takes leaf_count - 1 merges.
    """

    leaf_count: int
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
    nodes = [TreeNode()] * leaf_count
    levels = [tuple(range(leaf_count))]
    current = list(range(leaf_count))
    while len(current) > 1:
        parents = []
        for start in range(0, len(current), fanout):
            parents.append(len(nodes))
            nodes.append(TreeNode(tuple(current[start : start + fanout])))
        levels.append(tuple(parents))
        current = parents
    return FederationTree(leaf_count, len(levels) - 1, tuple(nodes), tuple(levels))


@dataclass(frozen=True)
class FederationConfig:
    """Settings shared by every client of a federation.

    Every field but seed is the EdgeClient parameter of the same name; seed
    feeds per-client noise generators (required when dp is set).
    """

    rank: int
    batch_size: int = 50
    energy: Optional[EnergyBounds] = None
    dp: Optional[DpConfig] = None
    cov_block_width: Optional[int] = None
    forgetting: float = 1.0
    rescale_private: bool = False
    seed: Optional[int] = None

    def __post_init__(self):
        if self.dp is not None and self.seed is None:
            raise ValueError("dp federation needs a seed for the noise streams")

    def client(self, dim: int, index: int = 0) -> EdgeClient:
        """The client at leaf ``index``; with dp it draws from derive_rng(seed, index)."""
        settings = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}
        rng = derive_rng(self.seed, index) if self.dp is not None else None
        return EdgeClient(dim, rng=rng, **settings)


@dataclass(frozen=True)
class GlobalEstimate:
    estimate: SubspaceEstimate
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


def _aggregate_tree(
    leaves: Sequence[SubspaceEstimate], tree: FederationTree, r: int
) -> GlobalEstimate:
    """Merge the leaf estimates up ``tree`` level by level, truncating to rank r."""
    estimates = dict(enumerate(leaves))
    per_level = [tuple(e.rank for e in leaves)]
    for level in tree.levels[1:]:
        for node_id in level:
            kids = [estimates[c] for c in tree.nodes[node_id].children]
            estimates[node_id] = aggregate_once(kids, r)
        per_level.append(tuple(estimates[i].rank for i in level))
    return GlobalEstimate(estimates[tree.root], tuple(per_level))


def run_federation(
    streams: Sequence[np.ndarray],
    tree: FederationTree,
    cfg: FederationConfig,
    max_workers: Optional[int] = None,
) -> GlobalEstimate:
    """Stream every client's columns, then aggregate up the tree.

    Each leaf i consumes streams[i] (d x n_i, n_i may be zero) in column
    order: with max_workers None, one column to each client in turn; with
    k workers, one task per leaf, k at a time on a thread pool, hands
    b-wide slices to process_batch, the last one partial, and returns its
    estimate. A non-finite entry raises ValueError from its batch's fold.
    """
    if len(streams) != tree.leaf_count:
        raise ValueError(f"got {len(streams)} streams for {tree.leaf_count} leaves")
    mats = [np.asarray(s, dtype=np.float64) for s in streams]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[0] != mats[0].shape[0]:
            raise ValueError(f"stream {i} has shape {m.shape}; streams must be "
                             "2-D and agree on the ambient dimension")

    def leaf(i: int) -> SubspaceEstimate:
        client = cfg.client(mats[i].shape[0], i)
        for lo in range(0, mats[i].shape[1], cfg.batch_size):
            client.process_batch(mats[i][:, lo : lo + cfg.batch_size])
        return client.estimate

    if max_workers is None:
        clients = [cfg.client(m.shape[0], i) for i, m in enumerate(mats)]
        for t in range(max(m.shape[1] for m in mats)):
            for client, m in zip(clients, mats):
                if t < m.shape[1]:
                    client.observe(m[:, t])
        leaves = [c.finalize() for c in clients]
    else:
        with ThreadPoolExecutor(max_workers) as pool:
            leaves = list(pool.map(leaf, range(tree.leaf_count)))
    return _aggregate_tree(leaves, tree, cfg.rank)


def depth_error_probe(
    y, fanout: int, depths: Sequence[int], r: int
) -> list[tuple[float, float]]:
    """Measured global error of depth-q lossless-data hierarchies vs their bound.

    For each depth q, the matrix is split into fanout**q equal column blocks,
    each reduced to a rank-r summary, and the summaries are merged up a full
    tree. The measured error aligns the root reconstruction B = [U * S | 0],
    zero-padded to the input width, with the input over the orthogonal
    group; the bound is ((1 + sqrt(2))**(q + 1) - 1) times the best rank-r
    residual, taken from one dense SVD of Y shared by every depth.
    B is never formed: with (U * S)^T Y = P Sigma Q^T the best rotation sends
    B to (U * S) P Q^T, and ||Y - (U * S) P Q^T||_F is summed block by block.
    On an exact tree this stays at rounding level, where the cancelling sum
    ||Y||_F^2 + ||B||_F^2 - 2 nuclear(B^T Y) reads about sqrt(eps) ||Y||_F.
    Leaves of any width take truncated_svd's one dense SVD, so an exact tree
    (r = d, bound 0) measures rounding alone.

    Returns:
        One (measured, bound) pair per depth, in the order given.
    """
    m = as_matrix(y)  # residual_rho reads Y first and rejects a non-finite entry
    d, n = m.shape
    if not depths or min(depths) < 1:
        raise ValueError("every depth must be at least 1")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} outside [1, {d}]")
    for leaves in (fanout**depth for depth in depths):
        if n % leaves != 0:
            raise ValueError(f"leaf count {leaves} must divide the column count {n}")
    rho = residual_rho(m, r)
    pairs = []
    for depth in depths:
        leaves = fanout**depth
        width = n // leaves
        summaries = [
            subspace_of(m[:, i * width : (i + 1) * width], r) for i in range(leaves)
        ]
        root = _aggregate_tree(summaries, build_tree(leaves, fanout), r).estimate

        scaled = root.basis * root.values
        p, _, qt = np.linalg.svd(scaled.T @ m, full_matrices=False)
        aligned = scaled @ p
        sq = 0.0
        for lo in range(0, n, width):
            part = m[:, lo : lo + width] - aligned @ qt[:, lo : lo + width]
            sq += float(np.einsum("ij,ij->", part, part))
        bound = ((1.0 + math.sqrt(2.0)) ** (depth + 1) - 1.0) * rho
        pairs.append((math.sqrt(sq), bound))
    return pairs
