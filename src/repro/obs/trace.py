"""Structured tracing: spans, per-node records, traces.jsonl.

Trace records are plain dicts with a ``kind`` field (``"node"``,
``"span"``; see the package README for the full schemas).
They stream to an append-only, per-line-checksummed ``traces.jsonl``
using the same fcntl-flock discipline as the run-store journal, and are
mirrored into a bounded in-memory ring buffer for live inspection.

Determinism contract: every field of a record is deterministic for a
seeded run *except* the fields named in :data:`TIMING_FIELDS`.  Tests
strip those and compare the remainder byte for byte across two identical
runs; nothing in a trace record ever feeds a content fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import percentile
from repro.utils.logging import get_logger
from repro.utils.serialization import jsonify

try:  # fcntl is POSIX-only; the run store and the scheduler already require it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

logger = get_logger("obs.trace")

PathLike = Union[str, Path]

#: Fields whose values are wall-time-dependent and therefore excluded from
#: the trace-determinism contract (and from any fingerprint, ever).
TIMING_FIELDS = frozenset(
    {
        "elapsed_s",
        "ready_wait_s",
        "start_s",
        "end_s",
    }
)

#: Default ring-buffer capacity (records kept in memory per tracer).
DEFAULT_RING_CAPACITY = 1024

_CHECKSUM_FIELD = "sha256"


def record_checksum(record: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of ``record`` minus its checksum field.

    Same canonicalization as the run-store journal (sorted keys, compact
    separators, ``jsonify``-normalized values); kept local so ``repro.obs``
    never imports the experiments layer.
    """
    body = {k: v for k, v in record.items() if k != _CHECKSUM_FIELD}
    canonical = json.dumps(jsonify(body), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def strip_timing_fields(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with timing fields and the checksum removed.

    What the determinism tests compare: two identical seeded runs must
    produce identical stripped records in identical order.
    """
    return {
        k: v
        for k, v in record.items()
        if k not in TIMING_FIELDS and k != _CHECKSUM_FIELD
    }


class Tracer:
    """Emit trace records to a ring buffer and (optionally) traces.jsonl.

    ``path=None`` keeps records in memory only.  File appends take an
    exclusive flock per line, write one checksummed JSON object, and
    flush; ``fsync=True`` additionally syncs each line to disk.  Unlike
    journaled sweep points, trace records are observability data — losing
    the tail on a power cut costs nothing recomputable — so fsync is off
    by default to keep the hot path cheap.

    Sequence numbers come from a process-local monotonic counter (never
    randomness or the wall clock), so record identity is deterministic.
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        clock: Callable[[], float] = time.perf_counter,
        fsync: bool = False,
        enabled: bool = True,
    ):
        self.path = Path(path) if path is not None else None
        self.enabled = bool(enabled)
        self._clock = clock
        self._fsync = bool(fsync)
        self._capacity = max(1, int(capacity))
        self._ring: List[Dict[str, Any]] = []
        self._ring_next = 0
        self._seq = 0
        self._span_seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ emit
    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit one record; returns it (with ``seq``/``sha256``) or None."""
        if not self.enabled:
            return None
        record = dict(fields)
        record["kind"] = kind
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            if len(self._ring) < self._capacity:
                self._ring.append(record)
            else:
                self._ring[self._ring_next] = record
                self._ring_next = (self._ring_next + 1) % self._capacity
        record[_CHECKSUM_FIELD] = record_checksum(record)
        if self.path is not None:
            self._append_line(record)
        return record

    def _append_line(self, record: Dict[str, Any]) -> None:
        line = json.dumps(jsonify(record), sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.write(line)
                handle.flush()
                if self._fsync:
                    os.fsync(handle.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ read
    def records(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """In-memory records in emission order (oldest retained first)."""
        with self._lock:
            ordered = self._ring[self._ring_next:] + self._ring[: self._ring_next]
        if kind is None:
            return list(ordered)
        return [r for r in ordered if r.get("kind") == kind]

    # ----------------------------------------------------------------- spans
    def _span_stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **fields: Any):
        """Profile a code region: emits a ``span`` record on exit.

        Spans get ids from their own counter (allocated at *entry*, so a
        child emitted before its parent exits can still name it) and nest
        via a thread-local stack; each record carries ``span_id`` and the
        parent span's id (None at the root) so offline tools can rebuild
        the tree.  Timing uses the injected monotonic clock.
        """
        if not self.enabled:
            yield None
            return
        stack = self._span_stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._span_seq
            self._span_seq += 1
        stack.append(span_id)
        started = self._clock()
        status = "ok"
        try:
            yield span_id
        except BaseException:
            status = "error"
            raise
        finally:
            stack.pop()
            self.emit(
                "span",
                name=name,
                span_id=span_id,
                parent=parent,
                status=status,
                elapsed_s=self._clock() - started,
                **fields,
            )

    def close(self) -> None:
        """Disable further emission (records already written stay valid)."""
        self.enabled = False


class _NullTracer(Tracer):
    """The disabled tracer: every call is a cheap no-op."""

    def __init__(self):
        super().__init__(None, capacity=1, enabled=False)

    def emit(self, kind: str, **fields: Any) -> None:
        return None


#: The shared disabled tracer — the default everywhere.
NULL_TRACER = _NullTracer()


def read_trace_file(path: PathLike) -> List[Dict[str, Any]]:
    """Load ``traces.jsonl``, skipping corrupt or checksum-mismatched lines."""
    path = Path(path)
    records: List[Dict[str, Any]] = []
    if not path.exists():
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                logger.warning("%s:%d: corrupt trace line skipped", path, lineno)
                continue
            if not isinstance(record, dict):
                logger.warning("%s:%d: non-object trace line skipped", path, lineno)
                continue
            expected = record.get(_CHECKSUM_FIELD)
            if expected != record_checksum(record):
                logger.warning(
                    "%s:%d: trace checksum mismatch skipped", path, lineno
                )
                continue
            records.append(record)
    return records


def _histogram_summary(values: List[float]) -> Dict[str, Any]:
    return {
        "count": len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


def summarize_traces(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate node/span records into the ``trace`` CLI summary.

    Percentiles use the same nearest-rank :func:`~repro.obs.metrics.
    percentile` as live histograms, so this offline view agrees exactly
    with ``python -m repro metrics`` for the same observations.
    """
    nodes: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "node":
            nodes.append(record)
        elif kind == "span":
            spans.append(record)

    summary: Dict[str, Any] = {}
    if nodes:
        statuses: Dict[str, int] = {}
        ready_waits: List[float] = []
        node_elapsed: List[float] = []
        queue_depths: List[int] = []
        for record in nodes:
            status = str(record.get("status", "unknown"))
            statuses[status] = statuses.get(status, 0) + 1
            if record.get("ready_wait_s") is not None:
                ready_waits.append(float(record["ready_wait_s"]))
            if record.get("elapsed_s") is not None:
                node_elapsed.append(float(record["elapsed_s"]))
            if record.get("queue_depth") is not None:
                queue_depths.append(int(record["queue_depth"]))
        summary["nodes"] = {
            "count": len(nodes),
            "statuses": dict(sorted(statuses.items())),
            "ready_wait_s": _histogram_summary(ready_waits),
            "elapsed_s": _histogram_summary(node_elapsed),
            "queue_depth_samples": queue_depths,
        }
    if spans:
        by_name: Dict[str, List[float]] = {}
        for record in spans:
            by_name.setdefault(str(record.get("name", "?")), []).append(
                float(record.get("elapsed_s", 0.0))
            )
        summary["spans"] = {
            name: _histogram_summary(values)
            for name, values in sorted(by_name.items())
        }
    return summary
