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
  workers use to pin their BLAS to one thread.
"""

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
