"""repro.obs — unified observability: metrics, tracing, profiling spans.

The package bundles a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer` into one :class:`Observability` handle
that the job scheduler and the experiment graph both accept.  The default everywhere is :data:`NULL_OBS` — both halves
disabled, every call a no-op — so observability is strictly opt-in and
costs nothing when off.  See ``README.md`` in this directory for the
instrument taxonomy, trace record schemas, and the clock-injection
contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    load_metrics_snapshot,
    percentile,
    write_metrics_snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    TIMING_FIELDS,
    Tracer,
    read_trace_file,
    record_checksum,
    strip_timing_fields,
    summarize_traces,
)

PathLike = Union[str, Path]

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NULL_OBS",
    "Observability",
    "Tracer",
    "TIMING_FIELDS",
    "DEFAULT_BUCKETS",
    "create_observability",
    "export_metrics",
    "load_metrics_snapshot",
    "metrics_path",
    "obs_root",
    "percentile",
    "read_trace_file",
    "record_checksum",
    "strip_timing_fields",
    "summarize_traces",
    "traces_path",
    "write_metrics_snapshot",
]


@dataclass
class Observability:
    """One handle carrying both halves of the observability stack."""

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    @property
    def enabled(self) -> bool:
        """True when either half records anything (guards payload building)."""
        return self.metrics.enabled or self.tracer.enabled


#: The shared disabled handle — the default argument everywhere.
NULL_OBS = Observability()


def obs_root(store_root: PathLike) -> Path:
    """Where a store's observability artifacts live: ``<store>/obs``."""
    return Path(store_root) / "obs"


def traces_path(root: PathLike) -> Path:
    """The trace stream under an obs root."""
    return Path(root) / "traces.jsonl"


def metrics_path(root: PathLike) -> Path:
    """The exported metrics snapshot under an obs root."""
    return Path(root) / "metrics.json"


def create_observability(
    root: PathLike,
    *,
    clock: Callable[[], float] = time.perf_counter,
    fsync: bool = False,
) -> Observability:
    """A live Observability writing traces under ``root`` (created if needed)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return Observability(
        metrics=MetricsRegistry(clock=clock),
        tracer=Tracer(traces_path(root), clock=clock, fsync=fsync),
    )


def export_metrics(obs: Observability, root: PathLike) -> Path:
    """Persist ``obs``'s metrics snapshot to ``<root>/metrics.json``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return write_metrics_snapshot(obs.metrics, metrics_path(root))
