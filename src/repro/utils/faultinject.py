"""Deterministic fault injection: a seeded chaos hook for resilience testing.

The supervised execution layer (:mod:`repro.experiments.resilience`) and the
run store call :func:`fire` / :func:`corrupt_file` at well-defined *sites*;
when a :class:`FaultPlan` is active, matching faults trigger there.  Every
trigger decision is a pure function of ``(fault.seed, site, index, attempt)``
— no global RNG state, no wall clock — so an injected failure reproduces
bit-identically across processes, execution orders, and reruns.  This is what
lets the chaos test suites assert exact recovery behaviour ("the worker dies
at point 2, attempt 1, every time") instead of sampling flaky outcomes.

Activation is process-wide, via either

* :func:`install` / :func:`uninstall` (or the :func:`injected` context
  manager) — programmatic, used by the test suites; with the default
  ``fork`` start method, worker processes inherit the installed plan; or
* the ``REPRO_FAULTS`` environment variable holding the plan as JSON — the
  CLI ``--faults`` option sets it, and it survives ``spawn`` workers, which
  re-read the environment on import.

Sites and kinds
---------------
``site="point"`` fires right before a point trains, on the serial,
process-pool and lockstep paths alike: in the per-point worker wrapper, and
once per stacked point (attempt 1) before a lockstep stack trains, whose
serial fallback then continues at attempt 2:

* ``kind="raise"`` — raise :class:`InjectedFault` (a transient task crash);
* ``kind="hang"`` — sleep ``seconds`` (a stuck point, for timeout tests);
* ``kind="kill"`` — ``os._exit`` the process (an OOM-killed worker; breaks
  the pool on the parallel path — never inject this on a serial or
  lockstep run, where it kills the parent);
* ``kind="interrupt"`` — raise ``KeyboardInterrupt`` (a mid-run Ctrl-C).

``site="store-save"`` fires after an artifact write; ``kind="corrupt"``
truncates and garbles the file (a torn write for quarantine tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.exceptions import ConfigurationError

#: Environment variable holding the active plan as JSON (a list of fault
#: dicts, or a single dict).  Read lazily, once per process per value.
ENV_VAR = "REPRO_FAULTS"

#: Hook locations fire()/corrupt_file() expose.
SITES = ("point", "store-save")

#: What a matching fault does at its site.
KINDS = ("raise", "hang", "kill", "interrupt", "corrupt")

#: Exit status of ``kind="kill"`` — distinctive in worker post-mortems.
KILL_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """The exception ``kind="raise"`` faults throw.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate arbitrary task crashes, so they must not be mistaken
    for the library's own configuration errors (which the CLI maps to a
    different exit code).
    """


def _uniform(seed: int, site: str, index: Optional[int], attempt: Optional[int]) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the trigger site."""
    key = f"{seed}|{site}|{index}|{attempt}".encode("utf-8")
    value = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return value / float(2**64)


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where it fires, when, and what it does.

    Attributes
    ----------
    site:
        Hook location, one of :data:`SITES`.
    kind:
        Effect at the site, one of :data:`KINDS` (``corrupt`` is only
        meaningful for ``store-save``).
    index:
        Point-index filter (the :class:`~repro.experiments.plan.PlanPoint`
        index); ``None`` matches every point.
    attempts:
        Attempt-number filter (1-based submission count, pool resubmits
        included); empty matches every attempt.  ``attempts=(1,)`` is the
        canonical "transient" fault: it fires once and the retry succeeds.
    probability:
        Trigger probability, drawn deterministically from
        ``(seed, site, index, attempt)`` — the same coordinates always make
        the same decision, in every process.
    seed:
        Seed of the probability stream.
    seconds:
        Sleep duration for ``kind="hang"``.
    message:
        Text carried by the raised exception / interrupt.
    """

    site: str = "point"
    kind: str = "raise"
    index: Optional[int] = None
    attempts: Tuple[int, ...] = ()
    probability: float = 1.0
    seed: int = 0
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self):
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {list(SITES)}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {list(KINDS)}"
            )
        object.__setattr__(
            self, "attempts", tuple(int(value) for value in self.attempts)
        )
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.seconds < 0:
            raise ConfigurationError(f"seconds must be >= 0, got {self.seconds}")

    def matches(
        self, site: str, index: Optional[int] = None, attempt: Optional[int] = None
    ) -> bool:
        """Whether this fault triggers at ``(site, index, attempt)``."""
        if site != self.site:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        if self.probability >= 1.0:
            return True
        return _uniform(self.seed, site, index, attempt) < self.probability

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view; round-trips through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        payload = dict(payload)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FaultSpec field(s) {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        coerced = []
        for entry in self.faults:
            if isinstance(entry, FaultSpec):
                coerced.append(entry)
            elif isinstance(entry, Mapping):
                coerced.append(FaultSpec.from_dict(entry))
            else:
                raise ConfigurationError(
                    "FaultPlan entries must be FaultSpec objects or mappings, "
                    f"got {type(entry).__name__}"
                )
        object.__setattr__(self, "faults", tuple(coerced))

    def matching(
        self, site: str, index: Optional[int] = None, attempt: Optional[int] = None
    ) -> Tuple[FaultSpec, ...]:
        return tuple(
            fault for fault in self.faults if fault.matches(site, index, attempt)
        )

    def as_json(self) -> str:
        return json.dumps([fault.as_dict() for fault in self.faults])

    @classmethod
    def parse(cls, payload: Union[str, Mapping, "FaultPlan", list, tuple]) -> "FaultPlan":
        """Build a plan from JSON text, a dict, a list of dicts, or a plan."""
        if isinstance(payload, FaultPlan):
            return payload
        if isinstance(payload, str):
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"fault plan is not valid JSON: {error}"
                ) from None
        if isinstance(payload, Mapping):
            payload = [payload]
        if not isinstance(payload, (list, tuple)):
            raise ConfigurationError(
                "fault plan JSON must be a fault dict or a list of fault dicts"
            )
        return cls(faults=tuple(payload))


# ------------------------------------------------------------- process state
_installed: Optional[FaultPlan] = None
#: ``(env text, parsed plan)`` cache so active_plan() parses each value once.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install(plan: Union[str, Mapping, FaultPlan, list, tuple]) -> FaultPlan:
    """Activate a fault plan process-wide (inherited by forked workers)."""
    global _installed
    _installed = FaultPlan.parse(plan)
    return _installed


def uninstall() -> None:
    """Deactivate any programmatically installed plan."""
    global _installed
    _installed = None


@contextmanager
def injected(plan: Union[str, Mapping, FaultPlan, list, tuple]) -> Iterator[FaultPlan]:
    """Context manager scoping an installed plan to a ``with`` block."""
    global _installed
    previous = _installed
    active = install(plan)
    try:
        yield active
    finally:
        _installed = previous


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect: installed programmatically, or from ``$REPRO_FAULTS``."""
    global _env_cache
    if _installed is not None:
        return _installed
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    cached_text, cached_plan = _env_cache
    if text != cached_text:
        _env_cache = (text, FaultPlan.parse(text))
    return _env_cache[1]


# ------------------------------------------------------------------ triggers
def fire(site: str, *, index: Optional[int] = None, attempt: Optional[int] = None) -> None:
    """Trigger every active fault matching ``(site, index, attempt)``.

    A no-op without an active plan — the hook costs one ``None`` check on
    the hot path.  ``corrupt`` faults are file-level and only act through
    :func:`corrupt_file`.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.matching(site, index, attempt):
        if fault.kind == "raise":
            raise InjectedFault(
                f"{fault.message} [site={site} index={index} attempt={attempt}]"
            )
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        elif fault.kind == "interrupt":
            raise KeyboardInterrupt(fault.message)


def corrupt_file(
    path: Union[str, Path], *, site: str = "store-save", index: Optional[int] = None
) -> bool:
    """Garble ``path`` in place when a matching ``corrupt`` fault is active.

    Truncates the file to half its length and appends raw bytes, simulating
    a torn write that both the JSON parser and the sha256 integrity check
    must catch.  Returns whether anything was corrupted.
    """
    plan = active_plan()
    if plan is None:
        return False
    corrupted = False
    for fault in plan.matching(site, index):
        if fault.kind != "corrupt":
            continue
        path = Path(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00corrupt")
        corrupted = True
    return corrupted
