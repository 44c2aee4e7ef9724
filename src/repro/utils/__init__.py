"""General-purpose utilities shared across the library.

The submodules are intentionally small and dependency-free:

* :mod:`repro.utils.rng` — deterministic random-number-generator handling.
* :mod:`repro.utils.validation` — argument checking helpers that raise the
  library's exception types with informative messages.
* :mod:`repro.utils.logging` — a light logging facade used by trainers and
  experiment runners.
* :mod:`repro.utils.serialization` — save/load of parameter dictionaries and
  experiment records to ``.npz`` / JSON files.
* :mod:`repro.utils.blas` — handles on numpy's OpenBLAS, which forked pool
  workers use to pin their BLAS to one thread, and which a sweep pool's
  parent holds at one thread while its workers run, and a λ split's parent
  until its stacks' points are finished.

:func:`usable_cpus` is the one CPU count the process fan-outs size
themselves by: the crossbar simulator's corner pass and a lockstep λ
sweep's split across processes.
"""

import os

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import as_rng, spawn_rng
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability,
    ensure_2d,
    ensure_4d,
)

__all__ = [
    "usable_cpus",
    "as_rng",
    "spawn_rng",
    "get_logger",
    "set_verbosity",
    "check_positive_int",
    "check_fraction",
    "check_probability",
    "ensure_2d",
    "ensure_4d",
]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
