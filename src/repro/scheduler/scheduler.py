"""The node scheduler: ready nodes of different jobs interleave on a pool.

:class:`JobScheduler` pulls queued jobs from a :class:`~repro.scheduler.
jobs.JobQueue` (highest priority first), expands each into a
:class:`~repro.experiments.graph.GraphExecution`, and dispatches ready
nodes onto a bounded thread pool.  The concurrency model is deliberate:

* **across jobs** — up to ``workers`` jobs each have one node in flight,
  so two submitted specs provably interleave their independent stages;
* **within a job** — exactly one node at a time, in plan order, which is
  what keeps each job's numbers (routing-cache accounting included)
  bit-identical to a standalone ``execute_spec`` run.

A sweep the engine fans out (``workers >= 2``) or stacks (lockstep) runs
as one ``points`` node, so its process pool — pool supervision included —
or its lockstep stack lives *inside* that node; the scheduler's threads
only coordinate.

Failure semantics are the PR 7 contract untouched: point failures are
retried per ``RetryPolicy`` inside the node, journaled, and isolated to
their job (the job finishes ``partial``); only run-level errors (baseline
training, assembly) fail the job.  Every status change is appended to the
queue's event stream.  All waits are bounded (the ``unbounded-wait`` lint
rule covers this tree), so the daemon always notices stop requests and
cancellations promptly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Dict, Optional

from repro.exceptions import ReproError, RunInterrupted
from repro.experiments.graph import GraphExecution, GraphNode
from repro.experiments.store import RunStore
from repro.obs import NULL_OBS, Observability
from repro.scheduler.jobs import Job, JobQueue, TERMINAL_STATES
from repro.utils.logging import get_logger

logger = get_logger("scheduler.scheduler")

#: Event names per node status (the observer wiring).
_NODE_EVENTS = {
    "running": "node-start",
    "done": "node-done",
    "reused": "node-reused",
    "skipped": "node-skipped",
    "failed": "node-failed",
    "cancelled": "node-cancelled",
}


class _ActiveJob:
    """Bookkeeping for one job the scheduler is currently executing."""

    def __init__(self, job: Job, execution: GraphExecution):
        self.job = job
        self.execution = execution
        self.future: Optional[Future] = None


class JobScheduler:
    """Dispatch ready graph nodes of queued jobs onto a worker pool."""

    def __init__(
        self,
        queue: JobQueue,
        store: RunStore,
        *,
        workers: int = 2,
        poll_s: float = 0.2,
        obs: Optional[Observability] = None,
    ):
        if workers < 1:
            raise ReproError(f"scheduler needs at least one worker, got {workers}")
        self.queue = queue
        self.store = store
        self.workers = int(workers)
        self.poll_s = float(poll_s)
        self.obs = obs if obs is not None else NULL_OBS
        self._active: Dict[str, _ActiveJob] = {}

    # -------------------------------------------------------------- observer
    def _observer_for(self, job_id: str):
        def observer(node: GraphNode, status: str, detail: str) -> None:
            event = _NODE_EVENTS.get(status)
            if event is not None:
                self.queue.append_event(
                    job_id, event, node=node.id, label=node.label, detail=detail
                )

        return observer

    # ------------------------------------------------------------- lifecycle
    def _admit(self) -> None:
        """Start queued jobs while worker slots are free (priority order)."""
        if len(self._active) >= self.workers:
            return
        for job in self.queue.jobs():
            if len(self._active) >= self.workers:
                break
            if job.job_id in self._active:
                continue
            if self.queue.state(job.job_id).get("state") != "queued":
                continue
            if self.queue.cancel_requested(job.job_id):
                self._finalize(job.job_id, "cancelled", "cancelled while queued")
                continue
            try:
                spec = job.spec()
                execution = GraphExecution(
                    spec,
                    store=self.store,
                    observer=self._observer_for(job.job_id),
                    install_signals=False,
                    obs=self.obs,
                    trace_context={"job": job.job_id},
                )
                self.queue.write_state(job.job_id, state="running")
                self.queue.append_event(job.job_id, "job-started")
                execution.start()
            except Exception as error:
                logger.warning("job %s failed to start: %s", job.job_id, error)
                self._finalize(
                    job.job_id, "failed", f"{type(error).__name__}: {error}"
                )
                continue
            active = _ActiveJob(job, execution)
            self._active[job.job_id] = active
            if execution.run_result is not None:
                # Complete-artifact short-circuit: nothing to schedule.
                self._finish_job(active)

    def _dispatch(self, pool: ThreadPoolExecutor) -> Dict[Future, str]:
        """Give every idle active job its next ready node."""
        futures: Dict[Future, str] = {}
        queued_depth: Optional[int] = None
        if self.obs.enabled:
            # One queue scan per dispatch round, not per node: the depth is
            # the number of submitted jobs still waiting for a worker slot.
            queued_depth = sum(
                1
                for job in self.queue.jobs()
                if self.queue.state(job.job_id).get("state") == "queued"
            )
            self.obs.metrics.gauge("scheduler.queue_depth").set(queued_depth)
            self.obs.metrics.gauge("scheduler.active_jobs").set(len(self._active))
        for job_id, active in list(self._active.items()):
            if active.future is not None:
                futures[active.future] = job_id
                continue
            if self.queue.cancel_requested(job_id):
                active.execution.cancel_pending()
                self._finalize(job_id, "cancelled", "cancelled mid-run")
                continue
            if active.execution.finished():
                self._finish_job(active)
                continue
            node_id = active.execution.next_ready()
            if node_id is None:
                # All remaining nodes are blocked on the one in flight
                # elsewhere — cannot happen with one node per job, so this
                # is a graph bug; fail loudly rather than spin.
                self._finalize(job_id, "failed", "graph deadlock: no ready node")
                continue
            if queued_depth is not None:
                # Safe to mutate: each job has at most one node in flight,
                # and we only write here, between that job's dispatches.
                active.execution.trace_context["queue_depth"] = queued_depth
            active.future = pool.submit(active.execution.run_node, node_id)
            futures[active.future] = job_id
        return futures

    def _collect(self, future: Future, job_id: str) -> None:
        """Fold one finished node future back into its job's bookkeeping."""
        active = self._active.get(job_id)
        if active is None:  # pragma: no cover - future outlived its job
            return
        active.future = None
        try:
            # The future is in wait()'s done set, so this never blocks.
            future.result(timeout=0)
        except RunInterrupted:
            # The assemble node persisted a partial artifact before raising.
            self._finalize(job_id, "partial", "interrupted; partial artifact saved")
            return
        except Exception as error:
            logger.warning("job %s failed: %s", job_id, error)
            self._finalize(job_id, "failed", f"{type(error).__name__}: {error}")
            return
        self.queue.write_state(
            job_id, state="running", nodes=dict(active.execution.status)
        )
        if active.execution.finished():
            self._finish_job(active)

    def _finish_job(self, active: _ActiveJob) -> None:
        result = active.execution.run_result
        if result is None:
            self._finalize(active.job.job_id, "failed", "run produced no result")
            return
        state = "partial" if result.failures else "done"
        detail = (
            f"{result.computed_points} computed, {result.reused_points} reused"
            + (f", {len(result.failures)} FAILED" if result.failures else "")
        )
        self._finalize(active.job.job_id, state, detail)

    def _finalize(self, job_id: str, state: str, detail: str = "") -> None:
        active = self._active.pop(job_id, None)
        nodes = dict(active.execution.status) if active is not None else None
        fields: Dict[str, Any] = {"state": state, "detail": detail}
        if nodes is not None:
            fields["nodes"] = nodes
        self.queue.write_state(job_id, **fields)
        self.queue.append_event(job_id, f"job-{state}", detail=detail)
        self.obs.metrics.counter(f"scheduler.jobs.{state}").inc()
        logger.info("job %s -> %s (%s)", job_id, state, detail)

    # ------------------------------------------------------------------- run
    def has_work(self) -> bool:
        """Anything active or admissible?"""
        if self._active:
            return True
        return any(
            self.queue.state(job.job_id).get("state") == "queued"
            for job in self.queue.jobs()
        )

    def run(
        self,
        stop_event: Optional[threading.Event] = None,
        *,
        drain: bool = False,
        idle_exit_s: Optional[float] = None,
    ) -> int:
        """The scheduler loop; returns the number of jobs it finalized.

        ``drain=True`` exits once the queue is empty and every active job
        is terminal; ``idle_exit_s`` exits after that much continuous idle
        time (a liveness backstop for CI).  A graceful stop requeues active
        jobs — their journaled progress resumes on the next daemon.
        """
        stop = stop_event or threading.Event()
        finalized_before = self._finalized_count()
        idle_since: Optional[float] = None
        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sched"
        ) as pool:
            while not stop.is_set():
                self._admit()
                futures = self._dispatch(pool)
                if not futures:
                    if drain and not self.has_work():
                        break
                    if not self.has_work():
                        if idle_since is None:
                            idle_since = time.monotonic()
                        elif (
                            idle_exit_s is not None
                            and time.monotonic() - idle_since >= idle_exit_s
                        ):
                            logger.info("idle for %.1fs; exiting", idle_exit_s)
                            break
                    else:
                        idle_since = None
                    # Bounded nap before re-polling the queue directory.
                    stop.wait(timeout=self.poll_s)
                    continue
                idle_since = None
                completed, _ = wait(
                    futures, timeout=self.poll_s, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    self._collect(future, futures[future])
            # Graceful stop: put live jobs back for the next daemon.
            for job_id, active in list(self._active.items()):
                if active.future is not None:
                    active.future.cancel()
                self.queue.write_state(job_id, state="queued", detail="daemon stopped")
                self.queue.append_event(job_id, "job-requeued", detail="daemon stopped")
                del self._active[job_id]
        return self._finalized_count() - finalized_before

    def _finalized_count(self) -> int:
        return sum(
            1
            for job in self.queue.jobs()
            if self.queue.state(job.job_id).get("state") in TERMINAL_STATES
        )
