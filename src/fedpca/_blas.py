"""One-thread OpenBLAS scope for the small dense work of an update.

A client update or a tree merge factors a d x (r + b) panel or an
(r + b)-square core. At these sizes OpenBLAS's thread team costs more than
it saves, so :func:`single_thread` sets the OpenBLAS thread count to 1 for
the duration of a ``with`` block and puts the caller's count back on exit.
The ``fedpca`` command runs in one such scope from start to end, so that
a BLAS product's bits cannot depend on the host's thread count.
The OpenBLAS that numpy loaded is found through ``/proc/self/maps``; where
there is none (MKL, Accelerate, other platforms) the scope does nothing.

The thread count is process-wide, so overlapping scopes, as in a threaded
federation, share one depth count under a lock: the first to enter saves
the count and sets 1, the last to leave restores it.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy  # noqa: F401  (loads the BLAS this module looks for)


class OpenBlas(NamedTuple):
    library: str  # file name of the shared object
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _loaded_openblas() -> list[str]:
    """Paths of the loaded shared objects named like OpenBLAS, numpy's first."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line.lower()]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    paths = [p for p in paths if "openblas" in Path(p).name.lower()]
    return sorted(paths, key=lambda p: ("numpy" not in p, p))


def _find_openblas() -> Optional[OpenBlas]:
    """Thread-count entry points of the OpenBLAS numpy loaded, if any.

    Builds differ in symbol names: plain ``openblas_*``, the ``scipy_``
    prefix of the numpy wheels, and ``64_`` / ``_64`` suffixes of ILP64
    builds.
    """
    if not sys.platform.startswith("linux"):
        return None
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64"):
                try:
                    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return OpenBlas(Path(path).name, get, put)
    return None


# The thread count is process state, so the scope's bookkeeping is too.
_UNSEARCHED = object()
_API = _UNSEARCHED
_lock = threading.Lock()
_depth = 0
_saved = 1


def openblas() -> Optional[OpenBlas]:
    """The OpenBLAS the scope acts on, searched for on first use."""
    global _API
    if _API is _UNSEARCHED:
        _API = _find_openblas()
    return _API


class single_thread:
    """Run a ``with`` block with OpenBLAS on one thread; restore the count after.

    A class, not a generator, so that entering and leaving stays cheap next
    to the smallest update it guards.
    """

    __slots__ = ("_api",)

    def __enter__(self):
        global _depth, _saved
        self._api = api = openblas()
        if api is not None:
            with _lock:
                if _depth == 0:
                    _saved = api.get_num_threads()
                    if _saved != 1:
                        api.set_num_threads(1)
                _depth += 1
        return self

    def __exit__(self, *exc) -> None:
        global _depth
        api = self._api
        if api is not None:
            with _lock:
                _depth -= 1
                if _depth == 0 and _saved != 1:
                    api.set_num_threads(_saved)


def describe() -> str:
    """Manifest note: the OpenBLAS found and the thread count a command uses."""
    api = openblas()
    if api is None:
        return "blas openblas=none threads=inherited"
    return f"blas openblas={api.library} threads=1"
