"""Fault-tolerant sweep execution: retry, timeout, pool supervision, isolation.

Long sweeps and hardware evals run for hours across process pools, where a
single OOM-killed worker, transient exception, or SIGINT used to lose the
whole run.  This module supervises point execution so failure is contained
at point granularity:

* **Point-failure isolation** — a point that exhausts its retry budget is
  captured as a :class:`PointFailure` record (exception class, message,
  traceback, attempt count) on the :class:`RunMonitor` instead of aborting
  the run; the remaining points still execute and the caller persists a
  partial artifact.  ``strict=True`` restores abort-on-first-failure.
* **Retry with deterministic results** — :class:`RetryPolicy` re-runs
  transiently failing points.  Point functions train their task's network
  in place, so every pool attempt, every serial attempt when retries are
  possible, and a lost lockstep stack's serial re-run train a fresh deep
  copy of the pristine network; setups and datasets are only read, so
  attempts share them.  Per-point seeds derive from ``(setup.seed,
  index)``, so a retried point's payload is bit-identical to a clean run's.
* **Worker supervision** — per-point wall-clock timeouts on the pool path
  (a hung worker is terminated and the pool rebuilt), ``BrokenProcessPool``
  recovery that resubmits only the lost points, and graceful degradation to
  supervised serial execution after repeated pool failures.
* **Fork-fed pools** — every pool, rebuilt ones included, hands the whole
  task list to its workers through the initializer: ``fork`` inherits it
  without pickling (where the platform has no ``fork``, each worker
  unpickles it once), and a submission carries only the point's slot.
  While a pool runs, the parent holds
  :func:`repro.utils.blas.single_blas_thread`: it only waits and finishes
  returned points, and a second BLAS thread there competed with the
  workers for the cores and raised the run's peak RSS.
* **Interrupt draining** — on the first SIGINT the monitor stops submitting
  new points, drains in-flight futures, and lets the caller persist what
  finished; a second SIGINT aborts immediately.

Execution-policy only: none of this changes *what* a point computes, so
spec/point fingerprints exclude the retry policy entirely
(:meth:`repro.experiments.spec.ExperimentSpec.canonical` drops it).

Every point attempt fires the :mod:`repro.utils.faultinject` ``point``
site — in :func:`_call_point` on the serial and pool paths, and once per
stacked point before a lockstep stack trains — so the chaos test suites
can inject crashes, hangs, worker kills, and interrupts there to prove each
recovery path above.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import signal
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, PointFailureError, PointTimeoutError
from repro.utils import faultinject
from repro.utils.blas import pin_worker_blas, single_blas_thread
from repro.utils.logging import get_logger

logger = get_logger("experiments.resilience")

#: Pool supervision tick: how often the parent checks deadlines / interrupts.
_TICK_S = 0.2


# -------------------------------------------------------------------- policy
@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised executor responds to point failures.

    Execution policy, not science: the retry policy never changes what a
    point computes (retries run on fresh task copies with the same derived
    seed), so it is excluded from spec and point fingerprints.

    Attributes
    ----------
    max_attempts:
        Failure budget per point.  ``1`` (default) means no retries.
    backoff_s:
        Sleep before retry ``k`` of a point: ``backoff_s * 2**(k-1)``.
    timeout_s:
        Per-point wall-clock budget.  Enforced on the process-pool path,
        where a hung worker can be terminated; the serial path cannot
        preempt its own process and ignores it.
    retry_on:
        Exception class *names* that qualify for retry, matched against the
        failing exception's MRO (``("Exception",)`` retries everything;
        name-based so policies survive JSON round-trips).  Non-matching
        failures are recorded immediately.
    pool_rebuilds:
        Budget for ``BrokenProcessPool`` recovery: how many times (a) the
        pool is rebuilt before the remaining points degrade to supervised
        serial execution, and (b) a single point may be lost to a broken
        pool before it is marked failed (a point whose own execution keeps
        killing workers must not wedge the run — and is never retried
        serially, where it would kill the parent).
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    timeout_s: Optional[float] = None
    retry_on: Tuple[str, ...] = ("Exception",)
    pool_rebuilds: int = 2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive (or None), got {self.timeout_s}"
            )
        if self.pool_rebuilds < 0:
            raise ConfigurationError(
                f"pool_rebuilds must be >= 0, got {self.pool_rebuilds}"
            )
        object.__setattr__(
            self, "retry_on", tuple(str(name) for name in self.retry_on)
        )

    # ------------------------------------------------------- serialization
    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view; round-trips through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> "RetryPolicy":
        payload = dict(payload or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown RetryPolicy field(s) {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------ matching
    def matches(self, error: BaseException) -> bool:
        """Whether ``error`` qualifies for retry under ``retry_on``."""
        names = {cls.__name__ for cls in type(error).__mro__}
        return any(name in names for name in self.retry_on)

    def wants_retry(self, error: BaseException, failed_attempts: int) -> bool:
        """Whether to re-run a point after its ``failed_attempts``-th failure."""
        return failed_attempts < self.max_attempts and self.matches(error)

    def backoff_for(self, failed_attempts: int) -> float:
        """Exponential-backoff sleep before the next attempt."""
        if self.backoff_s <= 0:
            return 0.0
        return self.backoff_s * (2 ** (failed_attempts - 1))


# ------------------------------------------------------------------ failures
@dataclass
class PointFailure:
    """One permanently failed sweep point, as recorded in the artifact.

    ``index`` is the plan-point index (stable across resumed runs);
    ``attempts`` counts genuine failed executions (pool losses from a
    worker crash elsewhere do not consume the retry budget).
    """

    index: int
    label: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    elapsed_s: float = 0.0

    @classmethod
    def from_exception(
        cls,
        *,
        index: int,
        label: str,
        error: BaseException,
        attempts: int,
        elapsed_s: float = 0.0,
    ) -> "PointFailure":
        detail = "".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        )
        return cls(
            index=index,
            label=label,
            error_type=type(error).__name__,
            message=str(error),
            traceback=detail,
            attempts=attempts,
            elapsed_s=elapsed_s,
        )

    def to_payload(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PointFailure":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


# ------------------------------------------------------------------- monitor
class RunMonitor:
    """Collects per-point outcomes and failures across one supervised run.

    One monitor spans every supervised stage of a run (sweep points,
    hardware evals).  ``on_success`` is the mid-run persistence hook: the
    graph executor sets it to its point finalizer so completed points are
    evaluated and journaled as they finish, not only at the end.
    ``pool_rebuilds`` counts the process pools torn down by a dead or
    timed-out worker over the monitor's lifetime, and ``attempts`` holds
    the attempt count of every finished slot: a success's submission
    count (the fault-injection attempt coordinate, so pool losses and a
    lost lockstep stack count), a failure's :attr:`PointFailure.attempts`.
    """

    def __init__(
        self,
        strict: bool = False,
        on_success: Optional[Callable[[int, Any], None]] = None,
    ):
        self.strict = strict
        self.on_success = on_success
        self.failures: Dict[int, PointFailure] = {}
        self.attempts: Dict[int, int] = {}
        self.interrupted = False
        self.pool_rebuilds = 0
        self._previous_sigint: Optional[Any] = None

    # ------------------------------------------------------------- records
    def record_success(self, slot: int, outcome: Any, attempts: int = 1) -> None:
        self.attempts[slot] = attempts
        if self.on_success is not None:
            self.on_success(slot, outcome)

    def record_failure(self, slot: int, failure: PointFailure) -> None:
        self.failures[slot] = failure
        self.attempts[slot] = failure.attempts
        logger.warning(
            "point %s failed permanently after %d attempt(s): %s: %s",
            failure.label,
            failure.attempts,
            failure.error_type,
            failure.message,
        )
        if self.strict:
            raise PointFailureError(
                f"strict mode: {failure.label} failed with "
                f"{failure.error_type}: {failure.message}"
            )

    def ordered_failures(self) -> List[PointFailure]:
        return [self.failures[slot] for slot in sorted(self.failures)]

    # ----------------------------------------------------------- interrupts
    def install_sigint(self) -> None:
        """Route SIGINT to drain-and-persist (second SIGINT aborts hard)."""
        try:
            self._previous_sigint = signal.signal(signal.SIGINT, self._handle_sigint)
        except ValueError:
            self._previous_sigint = None  # not the main thread; leave signals alone

    def _handle_sigint(self, signum, frame) -> None:
        if self.interrupted:
            raise KeyboardInterrupt
        self.interrupted = True
        logger.warning(
            "interrupt received: draining in-flight points and writing a "
            "partial artifact (interrupt again to abort immediately)"
        )

    def restore_sigint(self) -> None:
        if self._previous_sigint is not None:
            signal.signal(signal.SIGINT, self._previous_sigint)
            self._previous_sigint = None


# ----------------------------------------------------------------- execution
def _call_point(point_fn: Callable, task: Any, index: int, attempt: int) -> Any:
    """One supervised point attempt — the fault-injection hook site.

    The serial path calls it directly and pool workers through
    :func:`_call_slot`.  ``attempt`` is the 1-based submission number for
    this point, pool resubmissions included, so attempt-scoped faults
    (``attempts=(1,)``) fire exactly once.
    """
    faultinject.fire("point", index=index, attempt=attempt)
    return point_fn(task)


def _fresh_attempt(task: Any) -> Any:
    """``task`` with a deep copy of its network, so an attempt starts pristine.

    Point functions train ``task.network`` in place; everything else a task
    holds (setup, datasets, config) is only read, so the copy shares it.  A
    task without a network is returned as it is.
    """
    network = getattr(task, "network", None)
    if network is None:
        return task
    attempt = copy.copy(task)
    attempt.network = copy.deepcopy(network)
    return attempt


def _task_label(task: Any, slot: int) -> str:
    for attr in ("tolerance", "strength"):
        value = getattr(task, attr, None)
        if isinstance(value, (int, float)):
            return f"{attr}={value:g}"
    return f"point[{getattr(task, 'index', slot)}]"


def _task_index(task: Any, slot: int) -> int:
    index = getattr(task, "index", None)
    return index if isinstance(index, int) else slot


def supervised_map(
    engine: Any,
    point_fn: Callable,
    tasks: Iterable[Any],
    monitor: RunMonitor,
) -> Dict[int, Any]:
    """Run ``point_fn`` over every task under supervision.

    Returns ``{slot: outcome}`` for the points that succeeded; permanent
    failures land on ``monitor.failures`` keyed by the same slot (the task's
    position in ``tasks``).  Serial when ``engine.workers == 1`` (tasks
    consumed lazily, so a generator keeps one point's payload alive at a
    time), process-fanned otherwise.
    """
    if engine.workers > 1:
        tasks = list(tasks)
        if len(tasks) > 1:
            return _pool_map(engine, point_fn, tasks, monitor)
    return _serial_map(engine, point_fn, tasks, monitor)


def supervised_slot(
    engine: Any,
    point_fn: Callable,
    task: Any,
    monitor: RunMonitor,
    *,
    slot: int,
) -> Dict[int, Any]:
    """Run ONE ε task under serial supervision at an explicit slot number.

    The graph executor (:mod:`repro.experiments.graph`) runs a serial
    sweep's points one node at a time with the same bookkeeping as a whole
    supervised map: failures land on ``monitor.failures`` keyed by the
    point's position in the pending list, retries run per the engine's
    :class:`RetryPolicy` from pristine task copies, and the fault-injection
    attempt coordinates stay per point.  This is exactly :func:`_serial_map`
    with a pinned slot; a λ point node runs through
    :func:`_serial_strength_points` instead, which threads the graph's
    routing cache.
    """
    return _serial_map(engine, point_fn, [task], monitor, slots=[slot])


def _serial_map(
    engine: Any,
    point_fn: Callable,
    tasks: Iterable[Any],
    monitor: RunMonitor,
    *,
    prepare: Optional[Callable[[Any], None]] = None,
    absorb: Optional[Callable[[Any], None]] = None,
    slots: Optional[Sequence[int]] = None,
    submissions: Optional[Mapping[int, int]] = None,
) -> Dict[int, Any]:
    """Supervised inline execution (lazy task consumption, retry per point).

    ``slots``/``submissions`` let the pool path hand over its remaining
    points after degradation, preserving slot numbering and the per-point
    fault-injection attempt coordinates.
    """
    policy: RetryPolicy = engine.retry
    results: Dict[int, Any] = {}
    for position, task in enumerate(tasks):
        if monitor.interrupted:
            break
        slot = slots[position] if slots is not None else position
        index = _task_index(task, slot)
        submission = (submissions or {}).get(slot, 0)
        failed = 0
        start = time.monotonic()
        while True:
            submission += 1
            # A retry must start from a pristine network: only pay for the
            # copy when retries are actually possible.
            attempt_task = _fresh_attempt(task) if policy.max_attempts > 1 else task
            if prepare is not None:
                prepare(attempt_task)
            try:
                outcome = _call_point(point_fn, attempt_task, index, submission)
            except KeyboardInterrupt:
                monitor.interrupted = True
                break
            except Exception as error:
                failed += 1
                if not monitor.interrupted and policy.wants_retry(error, failed):
                    logger.warning(
                        "%s attempt %d/%d failed (%s: %s); retrying",
                        _task_label(task, slot),
                        failed,
                        policy.max_attempts,
                        type(error).__name__,
                        error,
                    )
                    delay = policy.backoff_for(failed)
                    if delay:
                        time.sleep(delay)
                    continue
                monitor.record_failure(
                    slot,
                    PointFailure.from_exception(
                        index=index,
                        label=_task_label(task, slot),
                        error=error,
                        attempts=failed,
                        elapsed_s=time.monotonic() - start,
                    ),
                )
                break
            results[slot] = outcome
            if absorb is not None:
                absorb(outcome)
            monitor.record_success(slot, outcome, submission)
            break
    return results


#: The task list a pool worker serves, set by :func:`_start_pool_worker`.
_WORKER_TASKS: Sequence[Any] = ()


def _start_pool_worker(tasks: Sequence[Any]) -> None:
    """Pool initializer: pin the worker's BLAS and keep the pool's tasks."""
    global _WORKER_TASKS
    pin_worker_blas()
    _WORKER_TASKS = tasks


def _call_slot(point_fn: Callable, slot: int, index: int, attempt: int) -> Any:
    """Pool task: one attempt at the worker's task ``slot``, on a fresh network."""
    return _call_point(point_fn, _fresh_attempt(_WORKER_TASKS[slot]), index, attempt)


def _make_pool(engine: Any, size: int, tasks: Sequence[Any]) -> ProcessPoolExecutor:
    """A pool whose workers inherit ``tasks`` through the initializer.

    Under ``fork`` the workers inherit the parent's task list unpickled; the
    default context of a platform without ``fork`` pickles it once per
    worker.
    """
    try:
        context = mp.get_context("fork")
    except ValueError:  # no fork on this platform: the default context
        context = mp.get_context()
    return ProcessPoolExecutor(
        max_workers=min(engine.workers, max(size, 1)),
        mp_context=context,
        initializer=_start_pool_worker,
        initargs=(tasks,),
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on its (possibly hung) workers."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


@single_blas_thread()
def _pool_map(
    engine: Any, point_fn: Callable, tasks: List[Any], monitor: RunMonitor
) -> Dict[int, Any]:
    """Supervised process fan-out: retry, timeout, and pool-rebuild recovery.

    Every pool this map makes, rebuilt ones included, is forked with the
    same pristine ``tasks`` (:func:`_make_pool`); a submission sends only
    ``(point_fn, slot, index, attempt)``, and the worker runs the attempt
    on a fresh copy of its task's network (:func:`_call_slot`).  The parent
    runs one BLAS thread for the map's lifetime
    (:func:`~repro.utils.blas.single_blas_thread`) and restores its count
    on the way out, however the map ends.

    A broken pool dooms every in-flight future without saying which task
    killed the worker, so after the first break the map switches to
    *isolation mode*: points are resubmitted one at a time into a fresh
    single-worker pool.  A solo point that breaks its pool is the culprit
    beyond doubt — it alone is charged the loss, and it alone fails
    permanently once its losses exceed ``policy.pool_rebuilds`` (it is never
    run in the parent, where its next crash would take the whole run down).
    If two *different* solo points each break a pool, the environment — not
    a point — is killing workers, and the remaining points degrade to
    supervised serial execution in the parent.
    """
    policy: RetryPolicy = engine.retry
    results: Dict[int, Any] = {}
    open_slots = set(range(len(tasks)))
    submissions = {slot: 0 for slot in open_slots}
    failed_attempts = {slot: 0 for slot in open_slots}
    losses = {slot: 0 for slot in open_slots}
    isolating = False
    queued: List[int] = []
    solo_breakers: set = set()
    pool = _make_pool(engine, len(tasks), tasks)
    futures: Dict[Any, int] = {}
    deadlines: Dict[Any, float] = {}
    broken_submits: List[int] = []
    clean = False

    def submit(slot: int) -> None:
        if isolating and futures:
            queued.append(slot)
            return
        submissions[slot] += 1
        index = _task_index(tasks[slot], slot)
        try:
            future = pool.submit(_call_slot, point_fn, slot, index, submissions[slot])
        except BrokenProcessPool:
            # The pool died between ticks; queue the slot for the rebuild
            # pass instead of losing it.
            broken_submits.append(slot)
            return
        futures[future] = slot
        if policy.timeout_s is not None:
            deadlines[future] = time.monotonic() + policy.timeout_s

    def fail(slot: int, error: BaseException, *, attempts: Optional[int] = None) -> None:
        open_slots.discard(slot)
        monitor.record_failure(
            slot,
            PointFailure.from_exception(
                index=_task_index(tasks[slot], slot),
                label=_task_label(tasks[slot], slot),
                error=error,
                attempts=failed_attempts[slot] if attempts is None else attempts,
            ),
        )

    def handle_failure(slot: int, error: BaseException) -> None:
        failed_attempts[slot] += 1
        if not monitor.interrupted and policy.wants_retry(error, failed_attempts[slot]):
            logger.warning(
                "%s attempt %d/%d failed (%s: %s); resubmitting",
                _task_label(tasks[slot], slot),
                failed_attempts[slot],
                policy.max_attempts,
                type(error).__name__,
                error,
            )
            delay = policy.backoff_for(failed_attempts[slot])
            if delay:
                time.sleep(delay)
            submit(slot)
        else:
            fail(slot, error)

    def record_success(slot: int, outcome: Any) -> None:
        results[slot] = outcome
        open_slots.discard(slot)
        monitor.record_success(slot, outcome, submissions[slot])

    try:
        for slot in sorted(open_slots):
            submit(slot)
        while futures or broken_submits or queued:
            while not futures and queued:
                slot = queued.pop(0)
                if slot in open_slots:
                    submit(slot)
            if not (futures or broken_submits):
                continue  # queued slots all resolved meanwhile
            lost: List[int] = []
            if futures:
                done, _ = wait(
                    set(futures), timeout=_TICK_S, return_when=FIRST_COMPLETED
                )
                for future in done:
                    slot = futures.pop(future)
                    deadlines.pop(future, None)
                    if future.cancelled():
                        continue  # drained on interrupt; slot stays unrun
                    error = future.exception()
                    if error is None:
                        record_success(slot, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        lost.append(slot)
                    elif isinstance(error, KeyboardInterrupt):
                        monitor.interrupted = True
                    else:
                        handle_failure(slot, error)
            if lost or broken_submits:
                # A worker died: every other in-flight future is doomed too.
                lost.extend(futures.values())
                lost.extend(broken_submits)
                broken_submits.clear()
                futures.clear()
                deadlines.clear()
                _kill_pool(pool)
                monitor.pool_rebuilds += 1
                implicated = sorted(set(lost))
                if isolating and len(implicated) == 1:
                    solo_breakers.add(implicated[0])
                for slot in implicated:
                    losses[slot] += 1
                    if losses[slot] > policy.pool_rebuilds:
                        fail(
                            slot,
                            BrokenProcessPool(
                                f"{_task_label(tasks[slot], slot)} lost to a broken "
                                f"pool {losses[slot]} times; not retrying (a point "
                                "that kills its worker must not run in the parent)"
                            ),
                            attempts=max(failed_attempts[slot], losses[slot]),
                        )
                isolating = True
                remaining = [slot for slot in implicated if slot in open_slots]
                if monitor.interrupted:
                    break
                if len(solo_breakers) >= 2:
                    # Two different points each broke a pool they had to
                    # themselves: workers are dying for environmental
                    # reasons, so pools are hopeless here — finish the open
                    # points under serial supervision in the parent.
                    queued.clear()
                    survivors = sorted(open_slots)
                    logger.warning(
                        "pool broke under %d different solo points; degrading "
                        "%d remaining point(s) to supervised serial execution",
                        len(solo_breakers),
                        len(survivors),
                    )
                    results.update(
                        _serial_map(
                            engine,
                            point_fn,
                            [tasks[slot] for slot in survivors],
                            monitor,
                            slots=survivors,
                            submissions={
                                slot: submissions[slot] for slot in survivors
                            },
                        )
                    )
                    return results
                logger.warning(
                    "process pool broke (rebuild %d); isolating %d lost "
                    "point(s): resubmitting one at a time",
                    monitor.pool_rebuilds,
                    len(remaining),
                )
                pool = _make_pool(engine, 1, tasks)
                for slot in remaining:
                    submit(slot)
                continue
            if monitor.interrupted:
                # Drain: stop anything not yet running, let running points
                # finish and be recorded by subsequent ticks.
                for future in list(futures):
                    future.cancel()
                continue
            if deadlines:
                now = time.monotonic()
                expired = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline < now and not future.done()
                ]
                if expired:
                    # A running task cannot be cancelled: terminate the pool,
                    # charge the timed-out points a failed attempt, and
                    # resubmit the innocent bystanders penalty-free.
                    expired_slots = sorted(futures.pop(future) for future in expired)
                    survivors = sorted(futures.values())
                    futures.clear()
                    deadlines.clear()
                    _kill_pool(pool)
                    monitor.pool_rebuilds += 1
                    pool = _make_pool(engine, len(open_slots), tasks)
                    for slot in survivors:
                        submit(slot)
                    for slot in expired_slots:
                        handle_failure(
                            slot,
                            PointTimeoutError(
                                f"{_task_label(tasks[slot], slot)} exceeded its "
                                f"{policy.timeout_s:g}s wall-clock budget"
                            ),
                        )
        clean = True
    finally:
        if clean:
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            _kill_pool(pool)
    return results


# ------------------------------------------------------- strength dispatch
def supervised_strength_points(
    engine: Any, tasks: Iterable[Any], monitor: RunMonitor
) -> Dict[int, Any]:
    """Execute λ group-deletion points under the engine's policy.

    ``mode="lockstep"`` trains the points as one stack, ``workers >= 2``
    fans them over a supervised pool, and the serial path threads one
    routing-analysis cache between points.  Failures isolate per point: a
    lockstep stack that is refused at construction or fails mid-training
    is re-run point-by-point under serial supervision from pristine task
    copies (lockstep mutates networks in place, so the failed stack cannot
    be reused).
    """
    from repro.experiments.runner import run_strength_point

    tasks = list(tasks)
    if engine.mode == "lockstep" and len(tasks) > 1:
        return _supervised_lockstep(engine, tasks, monitor)
    if engine.workers > 1 and len(tasks) > 1:
        return _pool_map(engine, run_strength_point, tasks, monitor)
    return _serial_strength_points(engine, tasks, monitor)


def _serial_strength_points(
    engine: Any,
    tasks: Sequence[Any],
    monitor: RunMonitor,
    *,
    cache: Any = None,
    slots: Optional[Sequence[int]] = None,
    submissions: Optional[Mapping[int, int]] = None,
) -> Dict[int, Any]:
    """Serial λ points threading one routing-analysis cache.

    Each point starts warm with every analysis the earlier points — or the
    earlier users of a passed-in ``cache``, such as the graph's shared one
    — discovered.  ``slots``/``submissions`` are as for :func:`_serial_map`.
    """
    from repro.experiments.runner import run_strength_point
    from repro.hardware.routing import RoutingAnalysisCache

    if cache is None:
        cache = RoutingAnalysisCache()

    def prepare(task):
        task.routing_cache_entries = cache.export_entries()

    def absorb(outcome):
        cache.merge_entries(outcome.routing_cache_entries)

    return _serial_map(
        engine,
        run_strength_point,
        tasks,
        monitor,
        prepare=prepare,
        absorb=absorb,
        slots=slots,
        submissions=submissions,
    )


def _supervised_lockstep(
    engine: Any, tasks: List[Any], monitor: RunMonitor
) -> Dict[int, Any]:
    """One lockstep stack, with a serial re-run from pristine copies as its fallback.

    The stack is every point's attempt 1 (the ``point`` fault site fires
    for each before it trains); the serial re-run starts at attempt 2.
    Like a pool loss, the lost stack charges no point's retry budget.
    """
    from repro.experiments.runner import _run_lockstep_strength_points

    # Lockstep trains every network in the stack in place; keep pristine
    # networks so a failure can restart point-by-point cleanly.
    pristine = [_fresh_attempt(task) for task in tasks]
    try:
        for slot, task in enumerate(tasks):
            faultinject.fire("point", index=_task_index(task, slot), attempt=1)
        outcomes = _run_lockstep_strength_points(tasks)
    except KeyboardInterrupt:
        monitor.interrupted = True
        return {}
    except Exception as error:
        logger.warning(
            "lockstep sweep failed (%s: %s); re-running its points under "
            "serial supervision",
            type(error).__name__,
            error,
        )
        # The lost stack was every point's attempt 1.
        lost = dict.fromkeys(range(len(pristine)), 1)
        return _serial_strength_points(engine, pristine, monitor, submissions=lost)
    results: Dict[int, Any] = {}
    for slot, outcome in enumerate(outcomes):
        results[slot] = outcome
        monitor.record_success(slot, outcome)
    return results
