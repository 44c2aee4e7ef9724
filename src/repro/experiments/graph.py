"""Explicit dependency-graph view of an experiment plan, and its executor.

:func:`build_graph` restructures a spec's :class:`~repro.experiments.plan.
ExperimentPlan` as a DAG of typed nodes — the shapes per kind::

    serial sweep:            baseline ─► [clip] ─► point:0 … point:N ─► assemble
    parallel/lockstep sweep: baseline ─► [clip] ─► points ─► assemble
    table1/3, figure3/5,
    baseline:                baseline ─► single:<kind> ─► assemble
    headline:                headline ─► assemble

(``clip`` exists for λ group-deletion sweeps only.)  A scheduler
(:mod:`repro.scheduler`) can dispatch any *ready* node — and interleave
ready nodes of **different** specs — instead of running one spec's stages
as a hard-coded sequence.

:class:`GraphExecution` is the one executor: :meth:`GraphExecution.run`
(the :func:`~repro.experiments.plan.execute_spec` path) and the job
scheduler both drive ``start()`` / :meth:`GraphExecution.next_ready` /
:meth:`GraphExecution.run_node`.  Sweep points run under the resilience
contract of :mod:`repro.experiments.resilience` (retry policy, typed
:class:`~repro.experiments.resilience.PointFailure` records, interrupt
draining).  A serial sweep runs one supervised slot per ``point:<i>`` node
(:func:`~repro.experiments.resilience.supervised_slot` for ε; λ points run
the serial strength loop over the graph's shared routing cache); a sweep
the engine fans out over a process pool or stacks in lockstep runs as one
``points`` node through
:meth:`~repro.experiments.runner.SweepEngine.map_points` /
:meth:`~repro.experiments.runner.SweepEngine.run_strength_points`, pool
supervision included.  Both shapes finish every point through one
finalizer — per-point evaluation, hardware simulation on a shared
:class:`~repro.hardware.mapper.NetworkMapper`, routing-cache accounting and
a journal append — so the artifact does not depend on the node shape, and a
crash loses at most the points in flight.  Every run persists through the
content-addressed :class:`~repro.experiments.store.RunStore` artifact merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ExperimentError, PointFailureError, RunInterrupted
from repro.experiments.headline import paper_headline_numbers
from repro.experiments.plan import (
    ExperimentContext,
    ExperimentPlan,
    ExperimentRun,
    PlanPoint,
    _merge_artifact,
    _resolve_workload,
    _run_hardware_stage,
    absorb_cache_stats,
    assemble_sweep_result,
    build_plan,
    build_point,
    build_single_result,
    make_point_task,
    prepare_strength_base,
    result_from_payload,
    result_to_payload,
    sweep_failure_payloads,
)
from repro.experiments.resilience import (
    PointFailure,
    RunMonitor,
    _serial_strength_points,
    supervised_slot,
)
from repro.experiments.runner import run_tolerance_point
from repro.experiments.spec import ExperimentSpec
from repro.experiments.training import train_baseline
from repro.hardware.mapper import NetworkMapper
from repro.hardware.routing import RoutingAnalysisCache
from repro.obs import NULL_OBS, Observability
from repro.utils.logging import get_logger

logger = get_logger("experiments.graph")

#: Node kinds, in rough pipeline order.
NODE_KINDS = ("baseline", "clip", "point", "points", "single", "headline", "assemble")

#: Node kinds that train sweep points.  A failed or interrupted one still
#: satisfies ``assemble``: partial sweeps assemble whatever finished, and
#: failures ride the artifact.
_POINT_KINDS = frozenset({"point", "points"})

#: Node statuses.  Terminal: everything except "pending" and "running".
NODE_STATUSES = (
    "pending",
    "running",
    "done",
    "reused",
    "skipped",
    "failed",
    "cancelled",
)

#: Statuses that satisfy a downstream dependency unconditionally.
_SATISFIED = frozenset({"done", "reused", "skipped"})

#: Statuses a run can no longer leave.
_TERMINAL = frozenset({"done", "reused", "skipped", "failed", "cancelled"})


# ------------------------------------------------------------------- graph
@dataclass(frozen=True)
class GraphNode:
    """One typed unit of work.

    ``inputs`` are upstream node ids.  Nodes that realize one plan point
    (``point:<i>``, ``single:<kind>``, ``headline``) carry that
    :class:`~repro.experiments.plan.PlanPoint` and its content fingerprint,
    which is what makes them individually resumable.
    """

    id: str
    kind: str
    label: str
    inputs: Tuple[str, ...] = ()
    fingerprint: str = ""
    point: Optional[PlanPoint] = None

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ExperimentError(
                f"unknown graph node kind {self.kind!r}; expected one of {NODE_KINDS}"
            )


@dataclass(frozen=True)
class ExperimentGraph:
    """A spec's plan as an explicit DAG of :class:`GraphNode` s."""

    spec: ExperimentSpec
    plan: ExperimentPlan
    nodes: Tuple[GraphNode, ...]

    def __post_init__(self):
        ids = [node.id for node in self.nodes]
        if len(ids) != len(set(ids)):
            raise ExperimentError(f"duplicate graph node ids in {sorted(ids)}")
        known = set(ids)
        for node in self.nodes:
            missing = [dep for dep in node.inputs if dep not in known]
            if missing:
                raise ExperimentError(
                    f"node {node.id!r} depends on unknown node(s) {missing}"
                )
        # Kahn topological order; nodes are authored in order, but validate
        # anyway so hand-built graphs fail loudly on cycles.
        order: List[str] = []
        satisfied: set = set()
        remaining = list(self.nodes)
        while remaining:
            progressed = [n for n in remaining if all(d in satisfied for d in n.inputs)]
            if not progressed:
                raise ExperimentError(
                    f"experiment graph has a cycle among {[n.id for n in remaining]}"
                )
            for node in progressed:
                order.append(node.id)
                satisfied.add(node.id)
            remaining = [n for n in remaining if n.id not in satisfied]
        object.__setattr__(self, "_topo", tuple(order))
        object.__setattr__(self, "_by_id", {node.id: node for node in self.nodes})

    # ------------------------------------------------------------- queries
    def node(self, node_id: str) -> GraphNode:
        """The node with id ``node_id``."""
        by_id: Dict[str, GraphNode] = getattr(self, "_by_id")
        if node_id not in by_id:
            raise ExperimentError(
                f"unknown graph node {node_id!r}; nodes: {list(by_id)}"
            )
        return by_id[node_id]

    def topological_order(self) -> Tuple[str, ...]:
        """Node ids in a valid execution order."""
        return getattr(self, "_topo")

    def describe(self) -> str:
        """Multi-line rendering of the DAG for logs and ``status``."""
        lines = [
            f"{self.spec.name} [{self.plan.fingerprint}]: "
            f"{len(self.nodes)} node(s), {self.plan.execution} execution"
        ]
        for node in self.nodes:
            deps = f" <- {', '.join(node.inputs)}" if node.inputs else ""
            lines.append(f"  [{node.kind}] {node.id}: {node.label}{deps}")
        return "\n".join(lines)


def build_graph(spec: ExperimentSpec) -> ExperimentGraph:
    """Expand ``spec`` into its typed dependency graph."""
    plan = build_plan(spec)
    if spec.kind == "headline":
        point = plan.points[0]
        nodes = [
            GraphNode(
                id="headline",
                kind="headline",
                label="paper headline numbers",
                fingerprint=point.fingerprint,
                point=point,
            )
        ]
    else:
        nodes = [
            GraphNode(
                id="baseline",
                kind="baseline",
                label=f"baseline[{spec.workload}@{spec.scale}]",
                fingerprint=plan.baseline_fingerprint,
            )
        ]
        if spec.kind != "sweep":
            point = plan.points[0]
            nodes.append(
                GraphNode(
                    id=f"single:{spec.kind}",
                    kind="single",
                    label=point.label,
                    inputs=("baseline",),
                    fingerprint=point.fingerprint,
                    point=point,
                )
            )
        else:
            point_inputs: Tuple[str, ...] = ("baseline",)
            if spec.method == "group_deletion":
                nodes.append(
                    GraphNode(
                        id="clip",
                        kind="clip",
                        label=f"clip[eps={spec.tolerance:g}]",
                        inputs=("baseline",),
                    )
                )
                point_inputs = ("baseline", "clip")
            if plan.execution == "serial":
                nodes.extend(
                    GraphNode(
                        id=f"point:{point.index}",
                        kind="point",
                        label=point.label,
                        inputs=point_inputs,
                        fingerprint=point.fingerprint,
                        point=point,
                    )
                    for point in plan.points
                )
            else:
                # The engine fans these points out (process pool) or stacks
                # them (lockstep), so they run as one supervised stage.
                labels = ", ".join(point.label for point in plan.points)
                nodes.append(
                    GraphNode(
                        id="points",
                        kind="points",
                        label=f"{plan.execution}[{labels}]",
                        inputs=point_inputs,
                    )
                )
    nodes.append(
        GraphNode(
            id="assemble",
            kind="assemble",
            label=f"assemble[{spec.name}]",
            inputs=tuple(
                node.id
                for node in nodes
                if node.kind in ("point", "points", "single", "headline")
            ),
        )
    )
    return ExperimentGraph(spec=spec, plan=plan, nodes=tuple(nodes))


# ---------------------------------------------------------------- execution
class GraphExecution:
    """Stateful executor for one spec's graph.

    Drive it with :meth:`run` (to completion) or externally — :meth:`start`,
    then :meth:`run_node` over :meth:`next_ready` until :meth:`finished` —
    which is how the job scheduler interleaves nodes of different specs.
    ``observer`` (called as ``observer(node, status, detail)`` on every
    status change) is the per-node event stream.

    ``install_signals=False`` (the scheduler's worker threads) skips the
    SIGINT drain handler, which only the main thread may install.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        context: Optional[ExperimentContext] = None,
        store=None,
        resume: bool = True,
        strict: bool = False,
        observer: Optional[Callable[[GraphNode, str, str], None]] = None,
        install_signals: bool = True,
        obs: Optional[Observability] = None,
        trace_context: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.graph = build_graph(spec)
        self.plan = self.graph.plan
        self.context = context or ExperimentContext()
        self.store = store
        self.resume = resume
        self.strict = strict
        self.observer = observer
        self.install_signals = install_signals
        self.obs = obs if obs is not None else NULL_OBS
        #: Extra fields stamped onto every node trace record (the scheduler
        #: sets the job id here, plus the queue depth at each dispatch).
        #: Mutable-by-owner is safe: at most one node per execution is in
        #: flight, so the owner only writes between dispatches.
        self.trace_context: Dict[str, Any] = dict(trace_context or {})
        self.status: Dict[str, str] = {node.id: "pending" for node in self.graph.nodes}
        self.timings: Dict[str, float] = {}
        self.monitor: Optional[RunMonitor] = None
        self.run_result: Optional[ExperimentRun] = None
        self._started: Optional[float] = None
        self._stored_points: Dict[str, Dict[str, Any]] = {}
        self._pending: List[PlanPoint] = []
        self._slots: Dict[str, int] = {}
        self._computed: Dict[str, Any] = {}
        self._cache_stats: Dict[str, int] = {}
        self._workload = None
        self._setup = None
        self._network = None
        self._accuracy: Optional[float] = None
        self._baseline_info: Optional[Dict[str, Any]] = None
        self._clipped = None
        self._single_result: Any = None
        #: One mapper per run, so its tiling-plan memo spans every point.
        self._mapper = NetworkMapper()
        #: Serial λ points thread one routing-analysis cache in plan order.
        self._routing_cache = RoutingAnalysisCache()
        self._points_elapsed = 0.0
        self._terminal_at: Dict[str, float] = {}
        self._node_elapsed: Dict[str, float] = {}
        self._journal_writes = 0

    # ------------------------------------------------------------- plumbing
    def _set_status(self, node_id: str, status: str, detail: str = "") -> None:
        self.status[node_id] = status
        if status in _TERMINAL:
            # Ready→dispatch latency of downstream nodes is measured from the
            # moment their last input became available.
            self._terminal_at[node_id] = time.perf_counter()
        if self.observer is not None:
            self.observer(self.graph.node(node_id), status, detail)

    def _workload_resolved(self):
        if self._workload is None:
            self._workload = _resolve_workload(self.spec, self.context)
        return self._workload

    # ---------------------------------------------------------------- start
    def start(self) -> None:
        """Resolve resume state and mark reusable/skippable nodes.

        When a complete artifact short-circuits the whole run,
        ``run_result`` is set immediately and every node is ``reused``.
        """
        self._started = time.perf_counter()
        spec, plan = self.spec, self.plan
        if self.store is not None and (
            self.context.workload is not None
            or self.context.baseline_network is not None
        ):
            # Fingerprints hash only the spec; externally-supplied workloads
            # or pre-trained baselines are invisible to them, so persisting
            # (or resuming) such a run would poison the store with results
            # the spec cannot reproduce.
            raise ExperimentError(
                "execute_spec cannot combine a store with a context-supplied "
                "workload or baseline network: point fingerprints hash only "
                "the spec. Run without a store, or register the workload and "
                "let the spec resolve it."
            )
        artifact = self.store.load(plan.fingerprint) if self.store is not None else None
        if (
            self.resume
            and artifact is not None
            and artifact.get("complete")
            and artifact.get("result") is not None
        ):
            result = result_from_payload(spec, artifact["result"])
            logger.info("resumed complete artifact %s", plan.fingerprint)
            for node in self.graph.nodes:
                self._set_status(node.id, "reused", "complete artifact")
            self.run_result = ExperimentRun(
                spec=spec,
                fingerprint=plan.fingerprint,
                result=result,
                payload=artifact["result"],
                computed_points=0,
                reused_points=len(plan.points),
                duration_s=time.perf_counter() - self._started,
                artifact_path=self.store.path(plan.fingerprint),
                timings=dict(artifact.get("timings", {})),
            )
            return

        if self.store is not None and self.resume:
            self._stored_points = self.store.lookup_points(
                point.fingerprint for point in plan.points
            )
            wanted = {point.fingerprint for point in plan.points}
            for fingerprint, journaled in self.store.load_journal(
                plan.fingerprint
            ).items():
                if fingerprint in wanted and fingerprint not in self._stored_points:
                    self._stored_points[fingerprint] = journaled
        elif self.store is not None:
            # --fresh recomputes everything: stale mid-run progress included.
            self.store.clear_journal(plan.fingerprint)

        if spec.kind == "sweep":
            self.monitor = RunMonitor(
                strict=self.strict, on_success=self._finalize_point
            )
            if self.install_signals:
                self.monitor.install_sigint()
            self._pending = [
                point
                for point in plan.points
                if point.fingerprint not in self._stored_points
            ]
            self._slots = {
                point.fingerprint: slot for slot, point in enumerate(self._pending)
            }
            for node in self.graph.nodes:
                if node.kind == "point" and node.fingerprint in self._stored_points:
                    self._set_status(node.id, "reused", "stored point")
            if not self._pending:
                if "points" in self.status:
                    self._set_status("points", "reused", "every point stored")
                for node_id in ("baseline", "clip"):
                    if node_id in self.status:
                        self._set_status(node_id, "skipped", "every point stored")
            elif self._stored_points:
                logger.info(
                    "resuming sweep %s: %d/%d points stored",
                    plan.fingerprint,
                    len(self._stored_points),
                    len(plan.points),
                )
        elif spec.kind != "headline":
            # The headline node always recomputes (it is pure arithmetic);
            # single kinds reuse their one stored point.
            point = plan.points[0]
            if point.fingerprint in self._stored_points:
                self._set_status(f"single:{spec.kind}", "reused", "stored point")
                self._set_status("baseline", "skipped", "stored point")

    # ------------------------------------------------------------ readiness
    def _dep_satisfied(self, dep_id: str) -> bool:
        status = self.status[dep_id]
        if status in _SATISFIED:
            return True
        return self.graph.node(dep_id).kind in _POINT_KINDS and status in (
            "failed",
            "cancelled",
        )

    def next_ready(self) -> Optional[str]:
        """The first pending node whose inputs are all satisfied."""
        for node_id in self.graph.topological_order():
            if self.status[node_id] != "pending":
                continue
            node = self.graph.node(node_id)
            if all(self._dep_satisfied(dep) for dep in node.inputs):
                return node_id
        return None

    def pending_nodes(self) -> List[str]:
        """Every node not yet in a terminal state."""
        return [
            node_id
            for node_id in self.graph.topological_order()
            if self.status[node_id] not in _TERMINAL
        ]

    def finished(self) -> bool:
        """True once every node reached a terminal status."""
        return all(status in _TERMINAL for status in self.status.values())

    def cancel_pending(self, detail: str = "job cancelled") -> List[str]:
        """Mark every pending node cancelled (scheduler-side job cancel)."""
        cancelled = []
        for node_id in self.graph.topological_order():
            if self.status[node_id] == "pending":
                self._set_status(node_id, "cancelled", detail)
                cancelled.append(node_id)
        return cancelled

    # ------------------------------------------------------------ run one
    def run_node(self, node_id: str) -> str:
        """Execute one ready node; returns its terminal status."""
        node = self.graph.node(node_id)
        if self.status[node_id] != "pending":
            raise ExperimentError(
                f"node {node_id!r} is {self.status[node_id]!r}, not pending"
            )
        unmet = [dep for dep in node.inputs if not self._dep_satisfied(dep)]
        if unmet:
            raise ExperimentError(f"node {node_id!r} has unmet dependencies {unmet}")
        dispatched = time.perf_counter()
        ready_at = max(
            (
                self._terminal_at[dep]
                for dep in node.inputs
                if dep in self._terminal_at
            ),
            default=self._started if self._started is not None else dispatched,
        )
        ready_wait = max(dispatched - ready_at, 0.0)
        before = (
            self._journal_writes,
            self.monitor.pool_rebuilds if self.monitor is not None else 0,
        )
        if node.kind in _POINT_KINDS and self.monitor.interrupted:
            # After an interrupt, unreached points are simply never run; the
            # partial artifact records the rest.
            self._set_status(node_id, "cancelled", "interrupted before start")
            self._emit_node_trace(node, "cancelled", dispatched, ready_wait, before)
            return "cancelled"
        self._set_status(node_id, "running")
        try:
            status, detail = self._execute(node)
        except RunInterrupted:
            # The assemble node persisted the partial artifact before
            # raising; the node itself succeeded.
            self._set_status(node_id, "done", "interrupted; partial artifact persisted")
            self._emit_node_trace(node, "done", dispatched, ready_wait, before)
            raise
        except Exception as error:
            self._set_status(node_id, "failed", f"{type(error).__name__}: {error}")
            self._emit_node_trace(node, "failed", dispatched, ready_wait, before)
            raise
        self._set_status(node_id, status, detail)
        self._emit_node_trace(node, status, dispatched, ready_wait, before)
        return status

    def _execute(self, node: GraphNode) -> Tuple[str, str]:
        """Run ``node``'s stage; its terminal ``(status, detail)``."""
        if node.kind in _POINT_KINDS:
            return self._run_points(node)
        if node.kind == "baseline":
            self._run_baseline()
        elif node.kind == "clip":
            self._clipped = prepare_strength_base(
                self.spec, self._workload_resolved(), self._setup, self._network
            )
        elif node.kind == "single":
            self._single_result = build_single_result(
                self.spec,
                self._workload_resolved(),
                self._setup,
                self._network,
                self._accuracy,
                self.timings,
            )
        elif node.kind == "headline":
            self._single_result = paper_headline_numbers()
        else:
            self._run_assemble()
        return "done", ""

    def _node_failures(self, node: GraphNode) -> List[PointFailure]:
        failures = self.monitor.failures
        return [failures[slot] for slot in self._node_slots(node) if slot in failures]

    def _node_slots(self, node: GraphNode) -> List[int]:
        """Pending-list slots of the points a point-kind node trains."""
        if node.kind == "point":
            return [self._slots[node.fingerprint]]
        return list(range(len(self._pending)))

    def _emit_node_trace(
        self,
        node: GraphNode,
        status: str,
        dispatched: float,
        ready_wait: float,
        before: Tuple[int, int],
    ) -> None:
        """Per-node metrics + NodeTrace record on every run_node exit.

        ``before`` holds the journal-write and pool-rebuild counts at
        dispatch; the record reports this node's deltas.
        """
        if not self.obs.enabled:
            return
        elapsed = time.perf_counter() - dispatched
        self._node_elapsed[node.id] = elapsed
        self.obs.metrics.histogram("graph.node_s").observe(elapsed)
        self.obs.metrics.counter(f"graph.nodes.{status}").inc()
        if not self.obs.tracer.enabled:
            return
        journal_before, rebuilds_before = before
        attempts, rebuilds = 1, 0
        if self.monitor is not None:
            rebuilds = self.monitor.pool_rebuilds - rebuilds_before
            if node.kind in _POINT_KINDS:
                attempts = max(
                    (
                        self.monitor.attempts.get(slot, 1)
                        for slot in self._node_slots(node)
                    ),
                    default=1,
                )
        self.obs.tracer.emit(
            "node",
            run=self.plan.fingerprint,
            node=node.id,
            node_kind=node.kind,
            label=node.label,
            status=status,
            attempts=attempts,
            retries=attempts - 1,
            pool_rebuilds=rebuilds,
            journal_flushes=self._journal_writes - journal_before,
            ready_wait_s=ready_wait,
            elapsed_s=elapsed,
            **self.trace_context,
        )

    # -------------------------------------------------------------- stages
    def _run_baseline(self) -> None:
        workload = self._workload_resolved()
        setup = self.context.setup
        network = self.context.baseline_network
        accuracy = self.context.baseline_accuracy
        if network is None or setup is None:
            t0 = time.perf_counter()
            network, accuracy, setup = train_baseline(workload)
            self.timings["baseline_s"] = round(time.perf_counter() - t0, 6)
        elif accuracy is None and self.spec.kind != "figure5":
            accuracy = setup.evaluate(network)
        self._setup, self._network, self._accuracy = setup, network, accuracy
        self._baseline_info = {
            "fingerprint": self.plan.baseline_fingerprint,
            "accuracy": accuracy,
        }

    def _run_points(self, node: GraphNode) -> Tuple[str, str]:
        """Train a point-kind node's pending points under supervision.

        A ``point:<i>`` node runs its one slot; the ``points`` node hands
        every pending point to the engine, which fans them over its process
        pool or stacks them in lockstep.  Either way each success reaches
        :meth:`_finalize_point` through the monitor.
        """
        spec, engine = self.spec, self.spec.engine
        workload = self._workload_resolved()
        base = self._network if spec.method == "rank_clipping" else self._clipped
        t0 = time.perf_counter()
        hardware_before = self.timings.get("hardware_s", 0.0)
        if node.kind == "point":
            task = make_point_task(spec, workload, self._setup, base, node.point)
            self._run_slot(self._slots[node.fingerprint], task)
        else:
            tasks = [
                make_point_task(spec, workload, self._setup, base, point)
                for point in self._pending
            ]
            if spec.method == "rank_clipping":
                engine.map_points(run_tolerance_point, tasks, self.monitor)
            else:
                engine.run_strength_points(tasks, self.monitor)
        # The hardware stage runs inside the node but books its own
        # hardware_s entry; points_s stays pure training/evaluation time.
        self._points_elapsed += (
            time.perf_counter()
            - t0
            - (self.timings.get("hardware_s", 0.0) - hardware_before)
        )
        self.timings["points_s"] = round(self._points_elapsed, 6)
        failures = self._node_failures(node)
        if failures:
            return "failed", "; ".join(
                f"{failure.label}: {failure.error_type}: {failure.message}"
                for failure in failures
            )
        if any(
            self._pending[slot].fingerprint not in self._computed
            for slot in self._node_slots(node)
        ):
            return "cancelled", "interrupted"
        return "done", ""

    def _run_slot(self, slot: int, task) -> None:
        """One serial sweep point in its supervised slot."""
        engine = self.spec.engine
        if self.spec.method == "rank_clipping":
            supervised_slot(engine, run_tolerance_point, task, self.monitor, slot=slot)
        else:
            # Each point starts warm with every routing analysis the earlier
            # points discovered.
            _serial_strength_points(
                engine, [task], self.monitor, cache=self._routing_cache, slots=[slot]
            )

    def _finalize_point(self, slot: int, outcome) -> None:
        """Finish one trained sweep point (the monitor's ``on_success``).

        Evaluates the point network, simulates it on the run's shared
        mapper, folds its routing-cache counters into the sweep totals and
        journals the finished record, so a crash loses only points still
        in flight.
        """
        spec = self.spec
        point = self._pending[slot]
        accuracy = spec.engine.evaluate_networks([outcome.network], self._setup)[0]
        hardware = _run_hardware_stage(
            spec, self._setup, outcome.network, self.timings, mapper=self._mapper
        )
        if spec.method != "rank_clipping":
            absorb_cache_stats(self._cache_stats, outcome)
        workload = self._workload_resolved()
        built = build_point(spec, workload, outcome, accuracy, hardware)
        self._computed[point.fingerprint] = built
        if self.store is not None:
            self.store.append_journal(
                self.plan.fingerprint, point.fingerprint, built.to_payload()
            )
            self._journal_writes += 1

    # ------------------------------------------------------------- assemble
    def _run_assemble(self) -> None:
        if self.monitor is not None:
            self.monitor.restore_sigint()
        spec, plan = self.spec, self.plan
        stored = self._stored_points
        failure_payloads: Dict[str, Dict[str, Any]] = {}
        if spec.kind == "sweep":
            monitor = self.monitor
            if (
                self._pending
                and monitor.failures
                and not self._computed
                and not stored
                and not monitor.interrupted
            ):
                first = monitor.ordered_failures()[0]
                raise PointFailureError(
                    "every sweep point failed; first failure: "
                    f"{first.label} ({first.error_type}: {first.message})"
                )
            if self._pending:
                accuracy = self._accuracy
            else:
                # Every point was stored: the baseline accuracy the result
                # quotes comes from the context, a stored baseline record,
                # or (only if material is at hand) a pure re-evaluation.
                accuracy = self.context.baseline_accuracy
                if accuracy is None and self.store is not None:
                    accuracy = self.store.lookup_baseline(plan.baseline_fingerprint)
                if (
                    accuracy is None
                    and self.context.setup is not None
                    and self.context.baseline_network is not None
                ):
                    accuracy = self.context.setup.evaluate(
                        self.context.baseline_network
                    )
                if accuracy is not None:
                    self._baseline_info = {
                        "fingerprint": plan.baseline_fingerprint,
                        "accuracy": accuracy,
                    }
            result = assemble_sweep_result(
                spec,
                plan,
                self._workload_resolved().name,
                accuracy,
                self._computed,
                stored,
                self._cache_stats,
            )
            payload = result_to_payload(spec, result)
            new_points = {
                fingerprint: built.to_payload()
                for fingerprint, built in self._computed.items()
            }
            failure_payloads = sweep_failure_payloads(plan, stored, monitor)
        elif spec.kind == "headline":
            result = self._single_result
            payload = result_to_payload(spec, result)
            new_points = {plan.points[0].fingerprint: payload}
        else:
            point = plan.points[0]
            if point.fingerprint in stored:
                payload = stored[point.fingerprint]
                result = result_from_payload(spec, payload)
                new_points = {}
            else:
                result = self._single_result
                payload = result_to_payload(spec, result)
                new_points = {point.fingerprint: payload}

        duration = time.perf_counter() - self._started
        self.timings["total_s"] = round(duration, 6)
        observability = None
        if self.obs.enabled:
            # Non-fingerprinted stage/node time breakdown for show/compare.
            # None when observability is off, so the artifact is bit-identical
            # to an uninstrumented run.
            observability = {
                "stage_timings": dict(self.timings),
                "nodes": {
                    node_id: round(elapsed, 6)
                    for node_id, elapsed in sorted(self._node_elapsed.items())
                },
            }
        artifact_path = None
        if self.store is not None:
            def merge(existing, _new=new_points, _payload=payload):
                return _merge_artifact(
                    existing,
                    spec,
                    plan,
                    stored,
                    _new,
                    _payload,
                    self._baseline_info,
                    self.timings,
                    failure_payloads,
                    observability=observability,
                )

            artifact_path, artifact = self.store.update(plan.fingerprint, merge)
            if artifact.get("complete"):
                # Every journaled point now lives in the artifact proper.
                self.store.clear_journal(plan.fingerprint)
        if self.monitor is not None and self.monitor.interrupted:
            where = (
                f"partial artifact {artifact_path}"
                if artifact_path is not None
                else "no store attached; unpersisted progress was discarded"
            )
            error = RunInterrupted(f"run {plan.fingerprint} interrupted ({where})")
            error.fingerprint = plan.fingerprint
            error.artifact_path = artifact_path
            raise error
        self.run_result = ExperimentRun(
            spec=spec,
            fingerprint=plan.fingerprint,
            result=result,
            payload=payload,
            computed_points=len(new_points),
            reused_points=len(stored),
            duration_s=duration,
            artifact_path=artifact_path,
            timings=self.timings,
            failures=self.monitor.ordered_failures() if self.monitor is not None else [],
        )

    # ------------------------------------------------------------------ run
    def run(self) -> ExperimentRun:
        """Execute the whole graph node by node and return the run record."""
        self.start()
        if self.run_result is not None:
            return self.run_result
        try:
            while not self.finished():
                node_id = self.next_ready()
                if node_id is None:  # pragma: no cover - DAG is validated
                    raise ExperimentError(
                        f"graph deadlock: no ready node among {self.pending_nodes()}"
                    )
                self.run_node(node_id)
        finally:
            if self.monitor is not None:
                self.monitor.restore_sigint()
        return self.run_result


def run_graph(
    spec: ExperimentSpec,
    *,
    context: Optional[ExperimentContext] = None,
    store=None,
    resume: bool = True,
    strict: bool = False,
    observer: Optional[Callable[[GraphNode, str, str], None]] = None,
    install_signals: bool = True,
    obs: Optional[Observability] = None,
    trace_context: Optional[Dict[str, Any]] = None,
) -> ExperimentRun:
    """Run one spec through its graph (the ``execute_spec`` implementation)."""
    execution = GraphExecution(
        spec,
        context=context,
        store=store,
        resume=resume,
        strict=strict,
        observer=observer,
        install_signals=install_signals,
        obs=obs,
        trace_context=trace_context,
    )
    return execution.run()
