"""Typed process-local metrics: counters, gauges, exact-percentile histograms.

The registry is the metrics half of :mod:`repro.obs` (see the package
README for the instrument taxonomy).  Design constraints, in order:

* **Cheap when disabled** — the default everywhere is the shared
  :data:`NULL_REGISTRY`: every instrument it hands out is a no-op
  singleton, so an uninstrumented hot path pays one attribute access and
  one no-op call, nothing else.  Code never branches on "is observability
  on"; it just calls the instrument it was given.
* **Thread-safe** — each instrument carries its own small lock; the
  scheduler's worker threads and a snapshot reader may all touch one
  registry concurrently.
* **Monotonic clock only** — timing helpers use an injectable
  ``perf_counter``-based clock, never the wall clock, so instrumenting a
  fingerprinted module (``experiments/graph.py``) cannot trip the
  ``wall-clock`` lint contract.
* **Exact percentiles** — histograms keep fixed buckets for shape *and* a
  bounded ring of raw samples; p50/p95/p99 are computed by the shared
  nearest-rank :func:`percentile` over the retained window.  The offline
  trace summarizer (:func:`repro.obs.trace.summarize_traces`) uses the
  same function over the same observations, so ``python -m repro
  metrics`` and a histogram recomputed from ``traces.jsonl`` agree
  exactly as long as the window has not overflowed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.utils.serialization import load_json, save_json

PathLike = Union[str, Path]

#: Default latency buckets (seconds): sub-millisecond to tens of seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Raw samples a histogram retains for exact percentile readout.  Beyond
#: this, the ring wraps and percentiles describe the most recent window.
DEFAULT_SAMPLE_WINDOW = 4096


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The single percentile definition shared by :meth:`Histogram.snapshot`
    and the offline trace summarizer — using one function on both sides is
    what makes the live ``metrics`` view and a histogram recomputed from
    ``traces.jsonl`` agree bit for bit.
    """
    if not values:
        return float("nan")
    if not 0 <= q <= 100:
        raise ReproError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if q == 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with a bounded raw-sample ring.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket.  The ring keeps the most recent
    ``sample_window`` raw observations so :meth:`snapshot` can report
    *exact* nearest-rank percentiles over that window rather than
    bucket-interpolated estimates.
    """

    __slots__ = (
        "name",
        "buckets",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_ring",
        "_ring_next",
        "_window",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        *,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ReproError(
                f"histogram {name!r} buckets must be non-empty and strictly "
                f"increasing, got {bounds}"
            )
        if sample_window < 1:
            raise ReproError(f"sample_window must be >= 1, got {sample_window}")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._ring: List[float] = []
        self._ring_next = 0
        self._window = int(sample_window)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            slot = len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = index
                    break
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if len(self._ring) < self._window:
                self._ring.append(value)
            else:
                self._ring[self._ring_next] = value
                self._ring_next = (self._ring_next + 1) % self._window

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            samples = list(self._ring)
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": {
                    **{f"le_{bound:g}": count
                       for bound, count in zip(self.buckets, self._counts)},
                    "overflow": self._counts[-1],
                },
                "window": len(samples),
                "p50": percentile(samples, 50),
                "p95": percentile(samples, 95),
                "p99": percentile(samples, 99),
            }


@contextmanager
def _timed(histogram: "Histogram", clock: Callable[[], float]):
    started = clock()
    try:
        yield
    finally:
        histogram.observe(clock() - started)


class MetricsRegistry:
    """Process-local registry of named instruments.

    Instruments are created on first request and shared thereafter;
    requesting an existing name as a different instrument type is an
    error (two subsystems silently sharing one name would corrupt both
    readings).  ``clock`` must be monotonic (default ``perf_counter``);
    it feeds :meth:`timer` only — no instrument ever reads the wall clock.
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory: Callable[[], object], kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ReproError(
                    f"metric {name!r} is already registered as a "
                    f"{type(instrument).__name__}, not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        *,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
    ) -> Histogram:
        return self._get(
            name,
            lambda: Histogram(name, buckets, sample_window=sample_window),
            Histogram,
        )

    def timer(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        """Context manager observing elapsed seconds into histogram ``name``."""
        return _timed(self.histogram(name, buckets), self._clock)

    def snapshot(self) -> Dict[str, Any]:
        """Canonical dict view: ``{counters, gauges, histograms}``, names sorted."""
        with self._lock:
            instruments = dict(self._instruments)
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[name] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


@contextmanager
def _null_timer():
    yield


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op instruments, zero retained state.

    ``enabled`` is False so call sites that *build* per-event payloads
    (trace dicts, label formatting) can skip that work entirely; plain
    ``inc``/``observe`` calls need no guard — they are no-ops.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, *, sample_window=1):
        return self._null_histogram

    def timer(self, name: str, buckets=DEFAULT_BUCKETS):
        return _null_timer()

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared disabled registry — the default everywhere.
NULL_REGISTRY = NullRegistry()


def write_metrics_snapshot(registry: MetricsRegistry, path: PathLike) -> Path:
    """Persist ``registry.snapshot()`` as JSON (the ``metrics`` CLI input).

    Registries are process-local, so ``serve-jobs --metrics`` exports its
    snapshot on exit; ``python -m repro metrics`` renders the export.
    """
    return save_json(Path(path), registry.snapshot())


def load_metrics_snapshot(path: PathLike) -> Dict[str, Any]:
    """Load a snapshot written by :func:`write_metrics_snapshot`."""
    path = Path(path)
    if not path.exists():
        raise ReproError(
            f"no metrics snapshot at {path}; run `python -m repro serve-jobs "
            "--metrics` first"
        )
    snapshot = load_json(path)
    if not isinstance(snapshot, dict) or "counters" not in snapshot:
        raise ReproError(f"{path} does not look like a metrics snapshot")
    return snapshot
