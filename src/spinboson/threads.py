"""The thread budget of a run: BLAS pinned to one thread, ``jobs`` workers.

The matrices of a run are small (tens to a few thousand rows), and at
that size OpenBLAS's own threads cost more in hand-offs than they save;
their count also moves eigenvalues in the last digits.  ``pinned_blas``
therefore sets every OpenBLAS library mapped into the process to one
thread for the length of a run and restores the previous counts on the
way out, exceptions included.

Pinning after numpy has loaded OpenBLAS leaves the library's worker pool
alive, and the idle pool still costs CPU time: a benchmark ``ladder``
run took 0.60 s of CPU for 0.47 s of wall time on a 2-CPU machine, and
0.47 s of CPU at the same wall time with OpenBLAS loaded at one thread.
``spinboson.cli`` therefore sets ``OPENBLAS_NUM_THREADS`` to 1 before
numpy loads, unless the environment names a count.  ``pinned_blas``
stays the guarantee for every other process, one that loaded numpy
before the package included.

The run's only parallelism is ``parallel_map`` over the parity sectors
of each ladder scale's spectral census, with ``jobs`` threads: each
sector decouples its far top-layer entries and takes ``eigvals`` of its
near block, or of the whole sector where the split does not pay (numpy
releases the interpreter lock inside LAPACK).  Resolvent samples run in the
calling thread: each norm is many small steps under the interpreter lock
(threads are untried on the Lanczos route).
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

# (get, set) thread-count symbols, tried in order on each mapped library:
# numpy's and scipy's wheels rename the OpenBLAS API, a plain build keeps it.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    return sorted({
        line.split()[-1] for line in lines
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })


class _OpenBLAS:
    """Thread-count getter and setter of one mapped OpenBLAS library."""

    def __init__(self, path: str, get, set_):
        self.library = Path(path).name
        self._get = get
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = set_
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None

    @property
    def threads(self) -> int:
        return int(self._get())

    @threads.setter
    def threads(self, n: int) -> None:
        self._set(int(n))


def openblas_libraries() -> list[_OpenBLAS]:
    """Every OpenBLAS in the process whose thread count can be set."""
    found = []
    for path in _mapped_openblas():
        lib = ctypes.CDLL(path)
        for get_sym, set_sym in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_sym, None), getattr(lib, set_sym, None)
            if get is not None and set_ is not None:
                found.append(_OpenBLAS(path, get, set_))
                break
    return found


@contextmanager
def pinned_blas():
    """Run the body with every OpenBLAS on one thread.

    Yields one record per library (``library``, ``threads_before``,
    ``threads_during``); an empty list means no OpenBLAS was found and
    nothing was pinned.  The previous counts are restored on exit.
    """
    libs = openblas_libraries()
    records = [{"library": lib.library, "threads_before": lib.threads} for lib in libs]
    try:
        for lib, rec in zip(libs, records):
            lib.threads = 1
            rec["threads_during"] = lib.threads
        yield records
    finally:
        for lib, rec in zip(libs, records):
            lib.threads = rec["threads_before"]


def parallel_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on up to ``jobs`` threads, order kept.

    With ``jobs`` 1 (or a single item) it runs inline, builds no pool and
    leaves ``concurrent.futures`` unimported.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent import futures

    with futures.ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))
