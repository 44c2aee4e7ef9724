"""Rule modules; importing this package registers every rule.

Each module groups the rules guarding one contract family:

* :mod:`~repro.analysis.rules.determinism` — seeded randomness, wall-clock-free
  fingerprint paths.
* :mod:`~repro.analysis.rules.dtype` — the global dtype policy.
* :mod:`~repro.analysis.rules.parity` — BLAS layout contiguity, shared-baseline
  aliasing.
* :mod:`~repro.analysis.rules.picklability` — process-pool task contracts.
* :mod:`~repro.analysis.rules.defaults` — mutable default arguments and
  ``x or Factory()`` defaults that discard a falsy instance.
* :mod:`~repro.analysis.rules.fingerprint` — resume-key coverage (semantic).
* :mod:`~repro.analysis.rules.robustness` — no swallowed exceptions in the
  engine/store failure-accounting path, no unbounded waits in the job
  scheduler.
"""

from repro.analysis.rules import (  # noqa: F401  (import side effect: @register)
    defaults,
    determinism,
    dtype,
    fingerprint,
    parity,
    picklability,
    robustness,
)
