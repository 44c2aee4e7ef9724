"""Handles on the OpenBLAS numpy ships, for pinning processes to one thread.

The process fan-outs (the sweep engine's pool, a lockstep λ sweep's split
across processes and the crossbar simulator's corner pass) fork workers
from a parent whose BLAS may run several threads; each worker pins its own
BLAS to one thread so the workers do not oversubscribe the cores.

While the sweep engine's workers train, the parent only waits on them and
finishes the points they return, so it holds :func:`single_blas_thread` for
the pool's lifetime.  With its second BLAS thread the parent competed with
the workers for the cores and grew the run's peak RSS: small ``figure7`` on
3 workers read 86.0 MiB unpinned and 80.5 MiB pinned, the same as serial
(2-core x86_64, ``OPENBLAS_NUM_THREADS=2``).  A λ split's parent trains its
own stack beside the worker's, and holds the pin from before the fork
until the stacks' points are finished, evaluations included: released when
the stacks ended, small ``figure8``'s peak RSS read 87.7 MiB against
81.5–82.6 MiB.  A whole run is not pinned, and neither is a serial re-run
after a lost stack, which has the parent to itself: serial ``figure7``
took 3.78 s median at one thread against 3.69 s at two (6 alternating
runs).  OpenBLAS gives the same bytes at one thread as at two, so the pin
moves no result.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple

#: Thread-count getters and setters, the ``scipy-openblas`` 64-bit names first.
_GET_NUM_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
_SET_NUM_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def openblas_symbol(*names: str) -> Optional[Callable]:
    """The first of ``names`` exported by the OpenBLAS numpy ships, or ``None``.

    Looks in the ``numpy.libs`` directory of a wheel install; loading the
    library numpy already loaded returns its live handle, so a setter called
    through it acts on numpy's own BLAS.
    """
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in names:
            symbol = getattr(handle, name, None)
            if symbol is not None:
                return symbol
    return None


@functools.lru_cache(maxsize=None)
def _thread_count_api() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` for numpy's OpenBLAS thread count, or ``None``."""
    get_threads = openblas_symbol(*_GET_NUM_THREADS)
    set_threads = openblas_symbol(*_SET_NUM_THREADS)
    if get_threads is None or set_threads is None:
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


def pin_worker_blas() -> None:
    """Pool-worker initializer: run the worker's OpenBLAS on one thread.

    Forked workers inherit the parent's multithreaded BLAS, so two workers on
    a 2-core box would run four BLAS threads and oversubscribe the cores.
    Does nothing when the library or its setter is not found.
    """
    api = _thread_count_api()
    if api is not None:
        api[1](1)


#: Holders of :func:`single_blas_thread` in this process, and the count the
#: first of them found; both guarded by ``_PIN_LOCK``.
_PIN_LOCK = threading.Lock()
_pin_holders = 0
_pin_restore = 1


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run this process's OpenBLAS on one thread inside the block.

    The pin is process-wide and counted: the job scheduler runs jobs in
    threads, so two fan-outs may overlap.  The first holder reads the
    current count and sets it to 1; the last one to leave restores it,
    whatever order the holders leave in.  Does nothing when the library or
    its thread-count functions are not found.
    """
    global _pin_holders, _pin_restore
    api = _thread_count_api()
    if api is None:
        yield
        return
    get_threads, set_threads = api
    with _PIN_LOCK:
        if _pin_holders == 0:
            _pin_restore = get_threads()
            set_threads(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_holders -= 1
            if _pin_holders == 0:
                set_threads(_pin_restore)
