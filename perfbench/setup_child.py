"""Set-up probe: launch -> datasets built, for one workload's spec.

usage: python3 perfbench/setup_child.py PRESET SEED OVERRIDES_JSON

``run.py`` starts this as a fresh child with ``src`` on ``PYTHONPATH``.  It
imports ``repro``, resolves the registered preset with the overrides and the
seed, and builds the datasets with ``spec.resolved_workload().data()`` -- the
work every run pays before its first train step.  It prints one JSON line:
the ``time.monotonic()`` instant the datasets were built, the resolved spec,
its fingerprint, and the versions, CPU features and OpenBLAS kernel that
decide whether a recorded result digest applies on this host.
"""

from __future__ import annotations

import ctypes
import json
import platform
import sys
import time
from pathlib import Path


def blas_core() -> str:
    """The kernel OpenBLAS picked at load time, which decides float rounding."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii", "replace")
    return "unknown"


def main(argv) -> int:
    preset, seed, overrides = argv[1], int(argv[2]), json.loads(argv[3])
    from repro.experiments.registry import REGISTRY

    spec = REGISTRY.get(preset, seed=seed, **overrides)
    train, test = spec.resolved_workload().data()
    ready = time.monotonic()

    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    print(
        json.dumps(
            {
                "ready": ready,
                "spec": spec.to_dict(),
                "fingerprint": spec.fingerprint(),
                "samples": [len(train), len(test)],
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
                "blas_core": blas_core(),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
