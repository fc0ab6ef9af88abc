import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fedpca import _blas, edge, federation
from fedpca.edge import EdgeClient
from fedpca.federation import aggregate_once
from fedpca.linalg import subspace_of
from fedpca.privacy import DpConfig, PrivacyInfeasibleError, derive_rng


@pytest.fixture
def api():
    """The discovered OpenBLAS, set to two threads for the test and reset after."""
    found = _blas._API
    if found is None:
        pytest.skip("no OpenBLAS loaded")
    before = found.get_num_threads()
    found.set_num_threads(2)
    try:
        yield found
    finally:
        found.set_num_threads(before)


def recording(monkeypatch, module, name, api, seen):
    """Replace module.name with a wrapper noting the thread count at each call."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(api.get_num_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_discovery_names_the_library(api):
    assert "openblas" in api.config.lower()
    assert _blas.describe() == f"blas openblas={api.config} threads=1"


@pytest.mark.skipif(_blas._API is None, reason="no OpenBLAS loaded")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPU count")
def test_found_library_is_the_one_numpy_configured():
    # numpy's OpenBLAS takes its count from the environment; the handle
    # lookup must read and pin that library's count, in a fresh process
    script = "\n".join([
        "from fedpca import _blas",
        "api = _blas._API",
        "before = api.get_num_threads()",
        "with _blas.single_thread():",
        "    inside = api.get_num_threads()",
        "print(before, inside, api.get_num_threads())",
        "print(_blas.describe())",
    ])
    src = str(Path(_blas.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    counts, described = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout.splitlines()
    assert counts == "2 1 2"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build configuration
        blas = {}
    if blas.get("name", "").endswith("openblas"):
        assert f"OpenBLAS {blas['version']}" in described


def test_process_batch_runs_pinned_and_restores(api, monkeypatch):
    seen = []
    recording(monkeypatch, edge, "subspace_of", api, seen)
    client = EdgeClient(dim=12, rank=3, batch_size=10)
    rng = np.random.default_rng(0)
    for _ in range(3):
        client.process_batch(rng.standard_normal((12, 10)))
        assert api.get_num_threads() == 2
    assert seen == [1, 1, 1]


def test_restored_after_update_raises(api, monkeypatch):
    seen = []
    recording(monkeypatch, edge, "min_batch_size", api, seen)
    dp = DpConfig(0.1, 0.05, omega_floor=1.0)  # needs 3219 columns
    client = EdgeClient(dim=20, rank=4, batch_size=50, dp=dp, rng=derive_rng(2, 0))
    with pytest.raises(PrivacyInfeasibleError):
        client.process_batch(np.ones((20, 50)))
    assert seen == [1]  # the width check, and so the raise, ran inside the scope
    assert api.get_num_threads() == 2


def test_tree_merges_run_pinned_and_restore(api, monkeypatch):
    seen = []
    recording(monkeypatch, federation, "merge", api, seen)
    rng = np.random.default_rng(1)
    kids = [subspace_of(rng.standard_normal((8, 6)), 3) for _ in range(3)]
    aggregate_once(kids, 3)
    assert seen == [1, 1]
    assert api.get_num_threads() == 2


def test_overlapping_scopes_restore_once_the_last_leaves(api):
    inside = threading.Barrier(2)
    first_out = threading.Event()
    counts = {}

    def hold(name, leave_first):
        with _blas.single_thread():
            inside.wait(timeout=30)
            if leave_first:
                return
            first_out.wait(timeout=30)
            counts[name] = api.get_num_threads()

    def early():
        try:
            hold("early", True)
        finally:
            first_out.set()

    workers = [threading.Thread(target=early), threading.Thread(target=hold, args=("late", False))]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()
    assert counts == {"late": 1}
    assert api.get_num_threads() == 2


def test_many_threads_never_leave_a_scope_unpinned(api):
    # a lost update of the depth count would restore the count while
    # another thread is still inside, or leave it at 1 afterwards
    unpinned = []

    def churn():
        for _ in range(2000):
            with _blas.single_thread():
                if api.get_num_threads() != 1:
                    unpinned.append(1)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert unpinned == []
    assert api.get_num_threads() == 2


def test_scope_is_a_noop_without_openblas(api, monkeypatch):
    monkeypatch.setattr(_blas, "_API", None)
    seen = []
    recording(monkeypatch, edge, "subspace_of", api, seen)
    client = EdgeClient(dim=12, rank=3, batch_size=10)
    client.process_batch(np.random.default_rng(0).standard_normal((12, 10)))
    assert seen == [2]
    assert api.get_num_threads() == 2
    assert _blas.describe() == "blas openblas=none threads=inherited"

