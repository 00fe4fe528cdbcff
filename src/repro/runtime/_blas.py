"""Scoped single-threaded OpenBLAS for the threaded runtime.

The runtime's stage threads are already its parallelism.  OpenBLAS's own
worker pool (the one bundled with the numpy and scipy wheels) only
oversubscribes the host on top of them, and its workers spin-wait between
the SNM's small GEMMs, burning CPU that no pipeline thread accounts for.
:func:`single_blas_thread` pins every loaded OpenBLAS to one thread for the
duration of a run and restores the previous counts afterwards.  Overlapping
scopes in one process share one reference count under a lock, so only the
last one out restores, and it restores the counts found by the first one in.

The libraries are located as threadpoolctl does it: scan the process's
loaded shared objects in ``/proc/self/maps`` and resolve each OpenBLAS's
get/set thread-count symbols, whose names vary by build (the scipy-openblas
wheels prefix them with ``scipy_`` and suffix the 64-bit-integer build with
``64_``).  Where no OpenBLAS is found (another BLAS, or no ``/proc``) the
scope does nothing.  The count is process-global in these builds, so it
cannot be set per thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = ["blas_threads", "locate_openblas", "single_blas_thread"]

_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
_SYMBOL_SUFFIXES = ("64_", "")


class _OpenBLAS(NamedTuple):
    """Thread-count controls of one loaded OpenBLAS shared object."""

    get: Callable[[], int]
    set: Callable[[int], None]


def _loaded_openblas_paths() -> list[str]:
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 6:
                    continue
                path = fields[-1]
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _controls(path: str) -> _OpenBLAS | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                return _OpenBLAS(get, set_)
    return None


def locate_openblas() -> list[_OpenBLAS]:
    """Thread-count controls of every OpenBLAS loaded in this process."""
    return [c for c in map(_controls, _loaded_openblas_paths()) if c is not None]


def blas_threads() -> list[int]:
    """Current thread count of each loaded OpenBLAS (empty if none)."""
    return [lib.get() for lib in locate_openblas()]


_lock = threading.Lock()
_depth = 0
_saved: list[tuple[_OpenBLAS, int]] = []


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread (see module doc)."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(lib, lib.get()) for lib in locate_openblas()]
            for lib, _ in _saved:
                lib.set(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, count in _saved:
                    lib.set(count)
                _saved = []
