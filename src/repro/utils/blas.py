"""Handles on the OpenBLAS numpy ships, for pinning worker processes.

Both process fan-outs (the sweep engine's pool and the crossbar simulator's
corner pass) fork workers from a parent whose BLAS may run several threads;
each worker pins its own BLAS to one thread so the workers do not
oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, Optional


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


def pin_worker_blas() -> None:
    """Pool-worker initializer: run the worker's OpenBLAS on one thread.

    Forked workers inherit the parent's multithreaded BLAS, so two workers on
    a 2-core box would run four BLAS threads and oversubscribe the cores.
    Does nothing when the library or its setter is not found.
    """
    setter = openblas_symbol(
        "scipy_openblas_set_num_threads64_", "openblas_set_num_threads"
    )
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter(1)
