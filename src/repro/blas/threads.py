"""One BLAS thread per rank: the numeric run's BLAS thread budget.

§III.B of the paper gives every rank its own root core and every FACT
worker a core of its own, so no core is oversubscribed.  The simulated
ranks are threads of one process, and every OpenBLAS loaded into it
(numpy's ``libscipy_openblas64_`` for DGEMM, scipy's ``libscipy_openblas``
for ``solve_triangular``'s DTRSM) would otherwise fan each call out over
one helper thread per host core.  :func:`one_blas_thread` pins every
loaded OpenBLAS to one thread while anyone is inside it and gives each
library its previous count back when the last holder leaves.

One thread is also what makes the numeric bits independent of the host:
OpenBLAS may split a call's work differently for different thread
counts, which changes the order of its floating-point sums.

OpenBLAS's count is process-wide, so the budget is too: a BLAS call made
by a thread outside the scope while a launch is running also gets one
thread.  Where no library exposes a thread-count symbol (another BLAS,
or no ``/proc/self/maps`` to find it by), the scope does nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from .kernels import lapack


class _OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS."""

    def __init__(self, get: Callable[[], int], set_: Callable[[int], None]):
        self.get = get
        self.set = set_


def _controls(path: str) -> _OpenBLAS | None:
    """The get/set pair of the already-loaded library at ``path``."""
    try:
        lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
    # numpy's build exports ``scipy_openblas_*64_``, scipy's
    # ``scipy_openblas_*``, a system OpenBLAS ``openblas_*``.
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return _OpenBLAS(get, set_)
    return None


_known: dict[str, _OpenBLAS | None] = {}
_modules_at_scan = -1


def loaded_openblas() -> list[_OpenBLAS]:
    """Every OpenBLAS mapped into this process that has a thread count.

    Reading ``/proc/self/maps`` costs about a millisecond, so it is read
    again only when a module has been imported since the last read: a
    BLAS arrives with the extension module that links it, and a loaded
    library never goes away.
    """
    global _modules_at_scan
    if len(sys.modules) != _modules_at_scan:
        _modules_at_scan = len(sys.modules)
        try:
            with open("/proc/self/maps") as fh:
                paths = {line.split(maxsplit=5)[-1].rstrip("\n")
                         for line in fh if "openblas" in line}
        except OSError:
            paths = set()
        for path in paths.difference(_known):
            _known[path] = _controls(path)
    return [lib for _, lib in sorted(_known.items()) if lib is not None]


_lock = threading.Lock()
_holders = 0
_saved: dict[_OpenBLAS, int] = {}


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on one thread.

    Scopes nest and overlap across threads: the counts are saved by the
    first holder and restored by the last one out, also when the body
    raises.  LAPACK is loaded on entry, outside the lock, so scipy's
    OpenBLAS is pinned from a process's first launch on; any other
    library first loaded inside the scope is pinned by the next holder
    to enter.
    """
    global _holders
    lapack()
    with _lock:
        for lib in loaded_openblas():
            if lib not in _saved:
                _saved[lib] = lib.get()
                lib.set(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for lib, count in _saved.items():
                    lib.set(count)
                _saved.clear()
