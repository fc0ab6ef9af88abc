"""One-thread OpenBLAS scope for the small dense work of an update.

A client update or a tree merge factors a d x (r + b) panel or an
(r + b)-square core. At these sizes OpenBLAS's thread team costs more than
it saves, so :func:`single_thread` sets the OpenBLAS thread count to 1 for
the duration of a ``with`` block and puts the caller's count back on exit.
The ``fedpca`` command runs in one such scope from start to end, so that
a BLAS product's bits cannot depend on the host's thread count.
The OpenBLAS is the one numpy's linalg extension links, looked up once, at
import, through that extension's handle; where it links none (MKL,
Accelerate, other platforms) the scope does nothing.

The thread count is process-wide, so overlapping scopes, as in a threaded
federation, share one depth count under a lock: the first to enter saves
the count and sets 1, the last to leave restores it.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from typing import Callable, NamedTuple, Optional

from numpy.linalg import _umath_linalg


class OpenBlas(NamedTuple):
    config: str  # openblas_get_config() (version, core type in use), else the symbol stem
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _find_openblas() -> Optional[OpenBlas]:
    """Thread-count entry points of the OpenBLAS numpy's linalg calls, if any.

    Builds differ in symbol names: plain ``openblas_*``, the ``scipy_``
    prefix of the numpy wheels, and ``64_`` / ``_64`` suffixes of ILP64
    builds.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError:
        return None
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            config = f"{prefix}openblas{suffix}"
            info = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if info is not None:
                info.restype, info.argtypes = ctypes.c_char_p, []
                config = " ".join(info().decode(errors="replace").split())
            return OpenBlas(config, get, put)
    return None


# The thread count is process state, so the scope's bookkeeping is too.
_API = _find_openblas()
_lock = threading.Lock()
_depth = 0
_saved = 1


class single_thread:
    """Run a ``with`` block with OpenBLAS on one thread; restore the count after.

    A class, not a generator, so that entering and leaving stays cheap next
    to the smallest update it guards.
    """

    __slots__ = ()

    def __enter__(self):
        global _depth, _saved
        if _API is not None:
            with _lock:
                if _depth == 0:
                    _saved = _API.get_num_threads()
                    if _saved != 1:
                        _API.set_num_threads(1)
                _depth += 1
        return self

    def __exit__(self, *exc) -> None:
        global _depth
        if _API is not None:
            with _lock:
                _depth -= 1
                if _depth == 0 and _saved != 1:
                    _API.set_num_threads(_saved)


def describe() -> str:
    """Manifest note: the OpenBLAS found and the thread count a command uses."""
    if _API is None:
        return "blas openblas=none threads=inherited"
    return f"blas openblas={_API.config} threads=1"
