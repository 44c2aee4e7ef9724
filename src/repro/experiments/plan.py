"""Planner and stage library for declarative experiment specs.

:func:`build_plan` expands an :class:`~repro.experiments.spec.ExperimentSpec`
into an :class:`ExperimentPlan` — one fingerprinted :class:`PlanPoint` per
sweep value (or a single point for the one-shot kinds) plus the execution
policy the engine will use (serial / parallel / lockstep, chosen per spec).
:func:`execute_spec` runs a plan, skipping any point whose fingerprint
already has a stored result when a :class:`~repro.experiments.store.RunStore`
is supplied with ``resume=True``, and persists the outcome as a
content-addressed JSON artifact.  Specs with a ``hardware`` section
additionally run a device-level evaluation stage over every finished point
network (:func:`repro.hardware.sim.simulate_evaluate`); the simulated
per-corner accuracies ride the point payloads and resume with them.

The executor lives in :mod:`repro.experiments.graph`: a spec's plan is
restructured as an explicit dependency graph (baseline → clip → points →
assemble nodes) and :func:`execute_spec` runs that graph node by node — the
same loop the :mod:`repro.scheduler` job daemon drives.  This module keeps
the plan expansion and the **stage library** the nodes call: task
construction, the one-shot deliverables, point records, result assembly and
artifact merging.
"""

from __future__ import annotations

import copy
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import GroupDeletionConfig, RankClippingConfig
from repro.core.conversion import convert_to_lowrank, direct_lra
from repro.core.group_deletion import GroupConnectionDeleter
from repro.core.rank_clipping import RankClipper
from repro.exceptions import ExperimentError
from repro.experiments.figures import Figure3Series, Figure5Series
from repro.experiments.headline import HeadlineNumbers
from repro.experiments.resilience import PointFailure, RunMonitor
from repro.experiments.runner import StrengthPointTask, TolerancePointTask
from repro.experiments.spec import (
    ExperimentSpec,
    baseline_fingerprint,
    point_fingerprint,
)
from repro.experiments.sweeps import (
    StrengthPoint,
    StrengthSweepResult,
    TolerancePoint,
    ToleranceSweepResult,
)
from repro.experiments.table1 import Table1Result, Table1Row
from repro.experiments.table3 import Table3Result, Table3Row
from repro.experiments.training import TrainingSetup
from repro.experiments.workloads import Workload
from repro.hardware.area import layer_area_fraction, network_area_fraction
from repro.hardware.mapper import NetworkMapper
from repro.hardware.sim import simulate_evaluate
from repro.utils.logging import get_logger

logger = get_logger("experiments.plan")


# ------------------------------------------------------------------------ plan
@dataclass(frozen=True)
class PlanPoint:
    """One unit of resumable work: a sweep value or a one-shot deliverable."""

    index: int
    value: Optional[float]
    fingerprint: str
    label: str


@dataclass(frozen=True)
class ExperimentPlan:
    """A spec expanded into fingerprinted points plus an execution policy."""

    spec: ExperimentSpec
    fingerprint: str
    points: Tuple[PlanPoint, ...]
    execution: str
    baseline_fingerprint: str

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        return (
            f"{self.spec.name} [{self.fingerprint}]: {len(self.points)} point(s), "
            f"{self.execution} execution"
        )


def build_plan(spec: ExperimentSpec) -> ExperimentPlan:
    """Expand ``spec`` into fingerprinted plan points."""
    if spec.kind == "sweep":
        symbol = "eps" if spec.method == "rank_clipping" else "lambda"
        points = tuple(
            PlanPoint(
                index=index,
                value=value,
                fingerprint=point_fingerprint(spec, index, value),
                label=f"{symbol}={value:g}",
            )
            for index, value in enumerate(spec.grid)
        )
        if spec.engine.mode == "lockstep" and spec.method == "group_deletion":
            execution = "lockstep"
        elif spec.engine.workers > 1:
            execution = "parallel"
        else:
            execution = "serial"
    else:
        points = (
            PlanPoint(
                index=0,
                value=None,
                fingerprint=point_fingerprint(spec, 0, None),
                label=spec.kind,
            ),
        )
        execution = "serial"
    return ExperimentPlan(
        spec=spec,
        fingerprint=spec.fingerprint(),
        points=points,
        execution=execution,
        baseline_fingerprint=baseline_fingerprint(spec),
    )


# --------------------------------------------------------------------- context
@dataclass
class ExperimentContext:
    """Optional pre-trained material threaded into :func:`execute_spec`.

    The benchmark harness and the examples reuse one trained baseline
    across several experiments; passing it here skips the baseline phase.
    ``workload`` overrides the spec's registry lookup (required for
    workloads built with custom constructor arguments).
    """

    workload: Optional[Workload] = None
    setup: Optional[TrainingSetup] = None
    baseline_network: Any = None
    baseline_accuracy: Optional[float] = None


@dataclass
class ExperimentRun:
    """What :func:`execute_spec` returns: the result plus run bookkeeping."""

    spec: ExperimentSpec
    fingerprint: str
    result: Any
    payload: Dict[str, Any]
    computed_points: int
    reused_points: int
    duration_s: float
    artifact_path: Optional[Path] = None
    timings: Dict[str, float] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)

    def format_summary(self) -> str:
        """One-paragraph run summary for the CLI."""
        points_line = (
            f"points: {self.computed_points} computed, {self.reused_points} reused"
        )
        if self.failures:
            points_line += f", {len(self.failures)} FAILED"
        points_line += f" | {self.duration_s:.2f}s"
        lines = [
            f"{self.spec.name} (kind={self.spec.kind}, method={self.spec.method}, "
            f"workload={self.spec.workload}, scale={self.spec.scale})",
            f"fingerprint: {self.fingerprint}",
            points_line,
        ]
        for failure in self.failures:
            lines.append(
                f"  failed: {failure.label} ({failure.error_type} after "
                f"{failure.attempts} attempt(s)): {failure.message}"
            )
        if self.artifact_path is not None:
            lines.append(f"artifact: {self.artifact_path}")
        return "\n".join(lines)


# -------------------------------------------------------------------- baseline
@dataclass(frozen=True)
class BaselineResult:
    """Result of a ``kind="baseline"`` spec: the dense network's accuracy.

    ``hardware`` optionally carries the network's simulated accuracy per
    device corner (``HardwareConfig.label`` → accuracy) when the spec has a
    ``hardware`` section.
    """

    workload_name: str
    scale: str
    iterations: int
    accuracy: Optional[float]
    hardware: Optional[Dict[str, float]] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts."""
        payload = {
            "workload_name": self.workload_name,
            "scale": self.scale,
            "iterations": self.iterations,
            "accuracy": self.accuracy,
        }
        if self.hardware is not None:
            payload["hardware"] = dict(self.hardware)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BaselineResult":
        """Rebuild from :meth:`to_payload` output."""
        hardware = payload.get("hardware")
        return cls(
            workload_name=payload["workload_name"],
            scale=payload["scale"],
            iterations=int(payload["iterations"]),
            accuracy=payload["accuracy"],
            hardware=None
            if hardware is None
            else {label: float(value) for label, value in hardware.items()},
        )

    def format_table(self) -> str:
        """Text rendering."""
        accuracy = "n/a" if self.accuracy is None else f"{self.accuracy:.2%}"
        lines = [
            f"Baseline ({self.workload_name} @ {self.scale})",
            f"iterations: {self.iterations}",
            f"accuracy:   {accuracy}",
        ]
        if self.hardware:
            lines.append("simulated hardware accuracy:")
            for label, value in self.hardware.items():
                lines.append(f"  {label:<24} {value:.2%}")
        return "\n".join(lines)


# ------------------------------------------------------------- result payloads
def result_to_payload(spec: ExperimentSpec, result: Any) -> Dict[str, Any]:
    """JSON-serializable view of a result object (artifact ``result`` field)."""
    if spec.kind == "headline":
        return result.as_dict()
    return result.to_payload()


def result_from_payload(spec: ExperimentSpec, payload: Dict[str, Any]) -> Any:
    """Rebuild the rich result object a stored artifact describes.

    Training-time extras that do not serialize (``clipping_result``,
    ``deletion_result``) come back as ``None`` — artifacts persist the
    reported numbers, not the in-memory training traces.
    """
    if spec.kind == "table1":
        return Table1Result.from_payload(payload)
    if spec.kind == "table3":
        return Table3Result.from_payload(payload)
    if spec.kind == "figure3":
        return Figure3Series.from_payload(payload)
    if spec.kind == "figure5":
        return Figure5Series.from_payload(payload)
    if spec.kind == "headline":
        return HeadlineNumbers.from_dict(payload)
    if spec.kind == "baseline":
        return BaselineResult.from_payload(payload)
    if spec.kind == "sweep":
        if spec.method == "rank_clipping":
            return ToleranceSweepResult.from_payload(payload)
        return StrengthSweepResult.from_payload(payload)
    raise ExperimentError(f"cannot rebuild results for kind {spec.kind!r}")


def render_result(result: Any) -> str:
    """Best-effort text rendering of any experiment result object."""
    for attr in ("format_table", "format_series", "format_summary"):
        renderer = getattr(result, attr, None)
        if callable(renderer):
            return renderer()
    return repr(result)


def run_environment() -> Dict[str, str]:
    """The environment block recorded in every artifact."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------- executor
def execute_spec(
    spec: ExperimentSpec,
    *,
    context: Optional[ExperimentContext] = None,
    store=None,
    resume: bool = True,
    strict: bool = False,
    obs=None,
) -> ExperimentRun:
    """Run ``spec`` end to end, resuming from ``store`` where possible.

    Parameters
    ----------
    spec:
        The experiment to run.
    context:
        Optional pre-trained baseline material (benchmark harness, examples).
    store:
        A :class:`~repro.experiments.store.RunStore`.  When given, the run is
        persisted as a content-addressed artifact; with ``resume=True`` any
        point whose fingerprint already has a stored result (in *any*
        artifact of the store) — or in the spec's mid-run journal, left by an
        interrupted earlier run — is reused instead of retrained, and a
        complete artifact short-circuits the run entirely — zero new
        training.  Completed sweep points are journaled as they finish, so a
        crash mid-sweep loses at most the point in flight.
    resume:
        Set ``False`` to recompute everything (the artifact is overwritten
        and any mid-run journal discarded).
    strict:
        Sweep points run supervised by the engine's
        :class:`~repro.experiments.resilience.RetryPolicy`; a point that
        exhausts its budget is recorded as a
        :class:`~repro.experiments.resilience.PointFailure` on the returned
        run (and in the artifact) while the rest of the sweep completes.
        ``strict=True`` restores abort-on-first-failure
        (:class:`~repro.exceptions.PointFailureError`).  A run where *every*
        point fails aborts regardless — that is a configuration problem, not
        a partial result.  The first SIGINT drains in-flight points and
        persists a partial artifact before raising
        :class:`~repro.exceptions.RunInterrupted`.
    obs:
        An optional :class:`~repro.obs.Observability` handle.  When enabled,
        stage/node timings register as metrics, node trace records stream to
        ``traces.jsonl``, and the artifact gains a non-fingerprinted
        ``observability`` section; the run's numbers and fingerprints are
        identical either way.
    """
    # Deferred import: repro.experiments.graph imports this module's stage
    # library at module scope, so the dependency must point one way only.
    from repro.experiments.graph import run_graph

    return run_graph(
        spec, context=context, store=store, resume=resume, strict=strict, obs=obs
    )


def _merge_artifact(
    existing: Optional[Dict[str, Any]],
    spec: ExperimentSpec,
    plan: ExperimentPlan,
    stored_points: Dict[str, Dict[str, Any]],
    new_points: Dict[str, Dict[str, Any]],
    result_payload: Optional[Dict[str, Any]],
    baseline_info: Optional[Dict[str, Any]],
    timings: Dict[str, float],
    failure_payloads: Optional[Dict[str, Dict[str, Any]]] = None,
    *,
    observability: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Fold this run into the spec's (possibly pre-existing) artifact."""
    # Artifact metadata timestamp — never a fingerprint input.  repro: ignore[wall-clock]
    now = time.strftime("%Y-%m-%dT%H:%M:%S")
    artifact = existing or {
        "version": 1,
        "fingerprint": plan.fingerprint,
        "created": now,
        "spec": spec.to_dict(),
    }
    artifact.update(
        {
            "name": spec.name,
            "kind": spec.kind,
            "method": spec.method,
            "workload": spec.workload,
            "scale": spec.scale,
            "execution": plan.execution,
            "updated": now,
            "environment": run_environment(),
        }
    )
    points = artifact.setdefault("points", {})
    for point in plan.points:
        reused = point.fingerprint not in new_points
        payload = (stored_points if reused else new_points).get(point.fingerprint)
        if payload is not None:
            points[point.fingerprint] = {
                "index": point.index,
                "value": point.value,
                "label": point.label,
                "reused": reused,
                "payload": payload,
            }
    if baseline_info is not None:
        artifact["baseline"] = baseline_info
    # Failure records persist across runs until the point finally computes —
    # a resumed run that succeeds where an earlier one failed clears it.
    failures = {**artifact.get("failures", {}), **(failure_payloads or {})}
    failures = {
        fingerprint: record
        for fingerprint, record in failures.items()
        if fingerprint not in points
    }
    if failures:
        artifact["failures"] = failures
    else:
        artifact.pop("failures", None)
    artifact["timings"] = {**artifact.get("timings", {}), **timings}
    if observability is not None:
        # Observability is descriptive, never a fingerprint input: runs with
        # it disabled leave any earlier section untouched.
        artifact["observability"] = {
            **artifact.get("observability", {}),
            **observability,
        }
    artifact["result"] = result_payload
    artifact["complete"] = result_payload is not None and all(
        point.fingerprint in points for point in plan.points
    )
    return artifact


# ----------------------------------------------------------- baseline plumbing
def _resolve_workload(spec: ExperimentSpec, context: ExperimentContext) -> Workload:
    if context.workload is not None:
        return context.workload
    return spec.resolved_workload()


# ------------------------------------------------------------ hardware stage
def _run_hardware_stage(
    spec: ExperimentSpec,
    setup: TrainingSetup,
    network,
    timings: Dict[str, float],
    *,
    mapper: Optional[NetworkMapper] = None,
) -> Optional[Dict[str, float]]:
    """Device-level simulated accuracy of ``network`` per hardware corner.

    Returns ``{config.label: accuracy}``, or ``None`` when the spec has no
    ``hardware`` section.  Sweeps pass one shared ``mapper`` so the
    tiling-plan memoization spans every point of the run.
    """
    if not spec.hardware:
        return None
    t0 = time.perf_counter()
    inputs, targets = setup.test_dataset.arrays()
    if mapper is None:
        mapper = NetworkMapper()
    hardware: Dict[str, float] = {}
    for config in spec.hardware:
        # batch_size bounds the im2col super-batch like the software eval
        # path; the per-conversion ADC makes the chunking value-neutral.
        hardware[config.label] = simulate_evaluate(
            network, inputs, targets, config, mapper=mapper, batch_size=256
        )
    timings["hardware_s"] = round(
        timings.get("hardware_s", 0.0) + time.perf_counter() - t0, 6
    )
    return hardware


# ------------------------------------------------------------ config builders
def clipping_config(
    spec: ExperimentSpec, workload: Workload, tolerance: float
) -> RankClippingConfig:
    """Rank-clipping settings for one ε over ``workload``'s clippable layers."""
    scale = workload.scale
    return RankClippingConfig(
        tolerance=tolerance,
        clip_interval=scale.clip_interval,
        max_iterations=scale.clip_iterations,
        method=spec.lowrank_method,
        layers=tuple(workload.clippable_layers),
    )


def deletion_config(
    spec: ExperimentSpec, workload: Workload, strength: float
) -> GroupDeletionConfig:
    """Group-deletion settings for one λ at ``workload``'s scale."""
    scale = workload.scale
    return GroupDeletionConfig(
        strength=strength,
        iterations=scale.deletion_iterations,
        finetune_iterations=scale.finetune_iterations,
        include_small_matrices=spec.include_small_matrices,
    )


# ------------------------------------------------------------ one-shot kinds
def build_single_result(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    network,
    accuracy: Optional[float],
    timings: Dict[str, float],
):
    """Run a single-point kind (table1/table3/figure3/figure5/baseline).

    The trained dense baseline arrives from the graph's baseline node; this
    stage only builds the deliverable from it.
    """
    t0 = time.perf_counter()
    hardware_before = timings.get("hardware_s", 0.0)
    if spec.kind == "baseline":
        result = BaselineResult(
            workload_name=workload.name,
            scale=workload.scale.name,
            iterations=workload.scale.baseline_iterations,
            accuracy=accuracy,
            hardware=_run_hardware_stage(spec, setup, network, timings),
        )
    else:
        result = _SINGLE_KINDS[spec.kind](spec, workload, setup, network, accuracy)
    # The baseline kind's hardware-eval stage books its own hardware_s entry;
    # keep points_s as pure result-building time.
    timings["points_s"] = round(
        time.perf_counter()
        - t0
        - (timings.get("hardware_s", 0.0) - hardware_before),
        6,
    )
    return result


def _clip_baseline(spec, workload, setup, baseline_network, baseline_accuracy):
    """Rank-clip a full-rank factorized copy of the baseline at ``spec.tolerance``."""
    network = convert_to_lowrank(
        baseline_network, layers=list(workload.clippable_layers)
    )
    clipping = RankClipper(clipping_config(spec, workload, spec.tolerance)).run(
        network, setup.trainer_factory, baseline_accuracy=baseline_accuracy
    )
    return network, clipping


def _delete_groups(spec, workload, setup, network):
    """Group connection deletion at ``spec.strength`` on a clipped network."""
    deleter = GroupConnectionDeleter(
        deletion_config(spec, workload, spec.strength),
        record_interval=workload.scale.record_interval,
    )
    return deleter.run(network, setup.trainer_factory)


def _run_table1(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    baseline_network,
    baseline_accuracy: float,
) -> Table1Result:
    """Table 1: Original / Direct LRA / Rank clipping rows for one workload."""
    layer_order = list(workload.clippable_layers)
    full_ranks = {name: min(workload.layer_shapes[name]) for name in layer_order}
    _, clipping = _clip_baseline(
        spec, workload, setup, baseline_network, baseline_accuracy
    )
    # Direct LRA control: truncate the baseline at the clipped ranks without
    # retraining.
    direct_network = direct_lra(
        baseline_network, clipping.final_ranks, method=spec.lowrank_method
    )
    direct_accuracy = spec.engine.evaluate_networks([direct_network], setup)[0]

    result = Table1Result(workload_name=workload.name, layer_order=layer_order)
    result.rows.append(Table1Row("Original", baseline_accuracy, full_ranks))
    result.rows.append(Table1Row("Direct LRA", direct_accuracy, dict(clipping.final_ranks)))
    result.rows.append(
        Table1Row("Rank clipping", clipping.final_accuracy, dict(clipping.final_ranks))
    )
    result.clipping_result = clipping
    return result


def _run_table3(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    baseline_network,
    baseline_accuracy: float,
) -> Table3Result:
    """Table 3: full pipeline (clipping + deletion) and per-matrix reporting."""
    network, clipping = _clip_baseline(
        spec, workload, setup, baseline_network, baseline_accuracy
    )
    deletion = _delete_groups(spec, workload, setup, network)
    report = NetworkMapper().map_network(network)
    result = Table3Result(
        workload_name=workload.name,
        clipping_result=clipping,
        deletion_result=deletion,
        baseline_accuracy=baseline_accuracy,
        final_accuracy=deletion.accuracy_after_finetune,
    )
    for name, routing in deletion.routing_reports.items():
        matrix_report = report.matrix(name)
        result.rows.append(
            Table3Row(
                matrix=name,
                matrix_shape=matrix_report.matrix_shape,
                tile_shape=matrix_report.tile_shape,
                num_crossbars=matrix_report.num_crossbars,
                wire_fraction=routing.wire_fraction,
            )
        )
    return result


def _run_figure3(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    baseline_network,
    baseline_accuracy: Optional[float],
) -> Figure3Series:
    """Figure 3: rank-ratio and accuracy traces during rank clipping."""
    _, clipping = _clip_baseline(
        spec, workload, setup, baseline_network, baseline_accuracy
    )
    trace = clipping.trace
    return Figure3Series(
        workload_name=workload.name,
        iterations=list(trace.iterations),
        rank_ratio={name: trace.rank_ratio(name) for name in trace.ranks},
        accuracy=list(trace.accuracy),
        clipping_result=clipping,
    )


def _run_figure5(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    baseline_network,
    baseline_accuracy: Optional[float],
) -> Figure5Series:
    """Figure 5: deleted-wire and accuracy traces during group deletion.

    Only the deletion phase is traced, so its clipping preamble runs
    without a baseline accuracy.
    """
    network, _ = _clip_baseline(spec, workload, setup, baseline_network, None)
    deletion = _delete_groups(spec, workload, setup, network)
    trace = deletion.trace
    return Figure5Series(
        workload_name=workload.name,
        iterations=list(trace.iterations),
        deleted_wire_fraction={k: list(v) for k, v in trace.deleted_wire_fraction.items()},
        accuracy=list(trace.accuracy),
        deletion_result=deletion,
        remaining_wire_fraction={
            k: list(v) for k, v in trace.remaining_wire_fraction.items()
        },
    )


#: The deliverable builders of the one-shot kinds other than ``baseline``.
_SINGLE_KINDS = {
    "table1": _run_table1,
    "table3": _run_table3,
    "figure3": _run_figure3,
    "figure5": _run_figure5,
}


# ------------------------------------------------------------------ sweep kind
def assemble_sweep_result(
    spec: ExperimentSpec,
    plan: ExperimentPlan,
    workload_name: str,
    accuracy: Optional[float],
    computed: Dict[str, Any],
    stored_points: Dict[str, Dict[str, Any]],
    cache_stats: Dict[str, int],
):
    """Assemble the full sweep result from computed + stored points.

    Failed (or interrupted-before-reached) points are simply absent from
    the result; their failure records ride the artifact separately.
    """
    if spec.method == "rank_clipping":
        result = ToleranceSweepResult(
            workload_name=workload_name, baseline_accuracy=accuracy
        )
        rebuild = TolerancePoint.from_payload
    else:
        result = StrengthSweepResult(
            workload_name=workload_name,
            baseline_accuracy=accuracy,
            routing_cache_stats=cache_stats,
        )
        rebuild = StrengthPoint.from_payload
    for point in plan.points:
        if point.fingerprint in computed:
            result.points.append(computed[point.fingerprint])
        elif point.fingerprint in stored_points:
            result.points.append(rebuild(stored_points[point.fingerprint]))
    return result


def sweep_failure_payloads(
    plan: ExperimentPlan,
    stored_points: Dict[str, Dict[str, Any]],
    monitor: RunMonitor,
) -> Dict[str, Dict[str, Any]]:
    """Artifact failure records keyed by point fingerprint.

    Monitor failures are keyed by *slot* — the point's position in the
    pending (not-yet-stored) list.
    """
    pending = [point for point in plan.points if point.fingerprint not in stored_points]
    return {
        pending[slot].fingerprint: monitor.failures[slot].to_payload()
        for slot in monitor.failures
        if slot < len(pending)
    }


def prepare_strength_base(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    baseline_network,
):
    """The λ sweep's shared phase: rank-clip one copy of the baseline.

    Every λ point trains from this clipped network; the graph models it as
    the ``clip`` node between the baseline and the point nodes.
    """
    # Defensive copy: the caller's baseline is typically shared across
    # experiments and must stay bit-identical.
    clipped = convert_to_lowrank(
        copy.deepcopy(baseline_network), layers=list(workload.clippable_layers)
    )
    # No held-out split on the clipping trainer: nothing reads its accuracies.
    RankClipper(clipping_config(spec, workload, spec.tolerance)).run(
        clipped, replace(setup, evaluate_during_training=False).trainer_factory
    )
    return clipped


def make_point_task(
    spec: ExperimentSpec,
    workload: Workload,
    setup: TrainingSetup,
    base_network,
    point: PlanPoint,
):
    """Self-contained task payload for one sweep point.

    ``base_network`` is the dense baseline for ε points and the shared
    rank-clipped network (:func:`prepare_strength_base`) for λ points.
    """
    point_setup = spec.engine.point_setup(setup, point.index)
    if spec.method == "rank_clipping":
        return TolerancePointTask(
            index=point.index,
            tolerance=point.value,
            network=convert_to_lowrank(
                copy.deepcopy(base_network), layers=list(workload.clippable_layers)
            ),
            setup=point_setup,
            config=clipping_config(spec, workload, point.value),
        )
    return StrengthPointTask(
        index=point.index,
        strength=point.value,
        network=copy.deepcopy(base_network),
        setup=point_setup,
        config=deletion_config(spec, workload, point.value),
        record_interval=workload.scale.record_interval,
    )


def build_point(
    spec: ExperimentSpec, workload: Workload, outcome, accuracy: float, hardware
):
    """Finished sweep-point record from an outcome plus its evaluations."""
    if spec.method != "rank_clipping":
        return StrengthPoint(
            strength=outcome.strength,
            accuracy=accuracy,
            error=1.0 - accuracy,
            wire_fractions=outcome.wire_fractions,
            routing_area_fractions=outcome.routing_area_fractions,
            hardware=hardware,
        )
    ranks = outcome.ranks
    return TolerancePoint(
        tolerance=outcome.tolerance,
        accuracy=accuracy,
        error=1.0 - accuracy,
        ranks=dict(ranks),
        layer_area_fractions={
            name: layer_area_fraction(*workload.layer_shapes[name], ranks.get(name))
            for name in workload.clippable_layers
        },
        total_area_fraction=network_area_fraction(
            workload.layer_shapes,
            {name: ranks.get(name) for name in workload.layer_shapes},
        ),
        hardware=hardware,
    )


def absorb_cache_stats(cache_stats: Dict[str, int], outcome) -> None:
    """Fold one outcome's routing-cache counters into the sweep totals."""
    for key, value in (outcome.routing_cache_stats or {}).items():
        if key != "size":
            cache_stats[key] = cache_stats.get(key, 0) + value
