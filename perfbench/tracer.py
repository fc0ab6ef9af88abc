"""Span tracer for the benchmark: wraps public fedpca functions from outside.

Every wrapped call records one span ``[name, start, end, parent, work]`` in
memory. ``parent`` is the index of the enclosing span (-1 for a root) and
``work`` is a per-call quantity derived from the call's arguments (flops,
columns scanned, mask elements, rows written). Nothing inside ``src/`` is
edited: the wrappers replace module attributes and class attributes, at
every place in the package that binds the original object, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# --- work extractors: computed from call shapes, never measured ------------
# Flop counts follow Golub & Van Loan's operation counts; they are a model of
# the dense work each call asks LAPACK/BLAS for, reported as computed.

def svd_flops(a, r, *_, **__) -> float:
    """Thin SVD with both factors of a d x n matrix (R-SVD count).

    Every workload calls truncated_svd with at most 512 columns, its dense
    LAPACK route.
    """
    big, small = max(a.shape), min(a.shape)
    return 6.0 * big * small * small + 20.0 * small**3


def merge_flops(s1, s2, r, *_, **__) -> float:
    d, r1, r2 = s1.dim, s1.rank, s2.rank
    if r1 == 0 or r2 == 0:
        return 0.0
    k = r1 + r2
    projections = 8.0 * d * r1 * r2  # z, residual, one re-orthogonalization
    qr = 4.0 * d * r2 * r2 - 4.0 / 3.0 * r2**3  # Householder QR with Q formed
    core = 21.0 * k**3  # square SVD with both factors
    rotate = 2.0 * d * k * min(r, k)
    return projections + qr + core + rotate


def mask_elems(d, c, *_, **__) -> float:
    return float(d * c)


def cols(y, *_, **__) -> float:
    return float(y.shape[1])


def rows(log, *_, **__) -> float:
    return float(len(log.rows()))


# (span name, owner module, attribute path, kind, work extractor)
# kind "call" wraps a plain call; "gen" wraps a generator so that only the
# time spent producing each item is inside a span.
TARGETS = (
    ("linalg.truncated_svd", "fedpca.linalg", "truncated_svd", "call", svd_flops),
    ("linalg.subspace_of", "fedpca.linalg", "subspace_of", "call", None),
    ("linalg.merge", "fedpca.linalg", "merge", "call", merge_flops),
    ("edge.process_batch", "fedpca.edge", "EdgeClient.process_batch", "call", None),
    ("edge.observe", "fedpca.edge", "EdgeClient.observe", "call", None),
    ("edge.ssvd", "fedpca.edge", "ssvd", "call", None),
    ("privacy.cov_slab", "fedpca.privacy", "masked_cov_blocks", "gen", None),
    ("privacy.gaussian_mask", "fedpca.privacy", "gaussian_mask", "call", mask_elems),
    ("federation.run_federation", "fedpca.federation", "run_federation", "call", None),
    ("federation.aggregate_once", "fedpca.federation", "aggregate_once", "call", None),
    ("metrics.projection_error", "fedpca.metrics", "projection_error", "call", cols),
    ("metrics.write_csv", "fedpca.metrics", "MetricLog.write_csv", "call", rows),
    ("datasets.generate", "fedpca.datasets", "synth_gaussian_cov", "call", None),
    ("datasets.generate", "fedpca.datasets", "synth", "call", None),
    ("datasets.partition", "fedpca.datasets", "partition_columns", "call", None),
    ("datasets.partition", "fedpca.datasets", "StreamPartition.split", "call", None),
    ("cli.main", "fedpca.cli", "main", "call", None),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fedpca" or name.startswith("fedpca."))]


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder with install / uninstall of its wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # --- recording ---------------------------------------------------------
    def open(self, name: str, work: float = 0.0) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, start: float, end: float) -> int:
        """Record an already-timed root interval, e.g. a subprocess lifetime."""
        self.spans.append([name, start, end, -1, 0.0])
        return len(self.spans) - 1

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (another process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, work in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, work])

    # --- wrappers ----------------------------------------------------------
    def _wrap_call(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name, work(*args, **kwargs) if work else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        traced.__perfbench_span__ = name
        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    rec = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(rec)
                    rec[4] = 1.0  # one item produced
                    yield item
            finally:
                it.close()

        traced.__perfbench_span__ = name
        return traced

    def install(self) -> list[str]:
        """Replace every binding of each target; return problems found."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        problems = []
        modules = _package_modules()
        for name, module_name, path, kind, extractor in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            if kind == "gen":
                wrapper = self._wrap_gen(name, original)
            else:
                wrapper = self._wrap_call(name, original, extractor)
            sites = [(owner, attr)]
            if isinstance(owner, type(sys)):  # module-level function: find re-bindings
                sites = [(m, key) for m in modules for key, val in vars(m).items()
                         if val is original]
            for site, key in sites:
                self._patches.append((site, key, original, wrapper))
                setattr(site, key, wrapper)
        wrappers = {id(p[3]) for p in self._patches}
        originals = {id(p[2]) for p in self._patches}
        for m in modules:
            for key, val in vars(m).items():
                if id(val) in originals:
                    problems.append(f"{m.__name__}.{key} still unwrapped")
        for site, key, _, _ in self._patches:
            if id(getattr(site, key)) not in wrappers:
                problems.append(f"{getattr(site, '__name__', site)}.{key} not patched")
        return problems

    def uninstall(self) -> list[str]:
        """Restore every original binding; return bindings left wrapped."""
        for site, key, original, _ in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()
        return wrapped_bindings()


def wrapped_bindings() -> list[str]:
    """Names in the package (modules and classes) still bound to a tracer wrapper."""
    found = []
    for m in _package_modules():
        for key, val in vars(m).items():
            owners = [(f"{m.__name__}.{key}", val)]
            if isinstance(val, type) and val.__module__ == m.__name__:
                owners += [(f"{m.__name__}.{key}.{k}", v) for k, v in vars(val).items()]
            found += [label for label, obj in owners if hasattr(obj, "__perfbench_span__")]
    return found


# --- analysis ----------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[list], root: int = 0) -> dict:
    """Per-name totals below one root span, plus the self-time balance.

    Self time of a span is its duration minus the union of its direct
    children's intervals (clipped to the span). ``gap_s`` is the root's
    duration not covered by any layer span, taken from the union of all
    layer intervals, independently of the parent links. ``misnested``
    counts spans that do not lie inside their parent's interval, as when
    spans recorded in another process are adopted under the wrong parent
    or on another clock. Once every span nests, layer self times plus
    gap_s equal the root's duration by construction, so ``balance_err_s``
    only checks this arithmetic.
    """
    kids = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    below, todo = [], [root]
    while todo:
        i = todo.pop()
        below.extend(kids[i])
        todo.extend(kids[i])

    r_lo, r_hi = spans[root][1], spans[root][2]
    out = defaultdict(float)
    self_total = 0.0
    for i in below:
        name, lo, hi, parent, work = spans[i]
        if not spans[parent][1] <= lo <= hi <= spans[parent][2]:
            out["misnested"] += 1
        child = [(max(spans[k][1], lo), min(spans[k][2], hi)) for k in kids[i]]
        own = (hi - lo) - _union_length([c for c in child if c[1] > c[0]])
        self_total += own
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own
        out[name + ".work"] += work
        # time of a name counts its outermost spans only
        p, nested = parent, False
        while p >= 0 and p != root:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            out[name + ".s"] += hi - lo
        if name == "linalg.merge" and spans[parent][0] == "federation.aggregate_once":
            out["federation.merges"] += 1
    covered = _union_length([(max(spans[i][1], r_lo), min(spans[i][2], r_hi))
                             for i in below if spans[i][2] > r_lo and spans[i][1] < r_hi])
    out["wall_s"] = r_hi - r_lo
    out["gap_s"] = out["wall_s"] - covered
    out["self_total_s"] = self_total
    out["balance_err_s"] = abs(self_total + out["gap_s"] - out["wall_s"])
    return dict(out)
