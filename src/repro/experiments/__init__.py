"""Experiment harnesses that regenerate every table and figure of the paper.

The declarative API is the primary entry point: build (or look up) an
:class:`ExperimentSpec`, execute it with :func:`execute_spec` against a
:class:`RunStore`, and every paper artifact runs through one engine-backed,
resumable path::

    from repro.experiments import REGISTRY, RunStore, execute_spec

    spec = REGISTRY.get("table1", workload="mlp", scale="tiny")
    run = execute_spec(spec, store=RunStore("runs"))
    print(run.result.format_table())

The same workflow is available from the shell as ``python -m repro``
(``run`` / ``list`` / ``show`` / ``compare`` / ``bench``), and as a
long-running service via the job verbs (``serve-jobs`` / ``submit`` /
``status`` / ``cancel`` / ``watch``, see :mod:`repro.scheduler`).
``execute_spec`` itself is a thin wrapper over a single-spec run of the
experiment graph (:mod:`repro.experiments.graph`), which exposes the same
pipeline as an explicit DAG of typed nodes.
"""

from repro.experiments.graph import (
    ExperimentGraph,
    GraphExecution,
    GraphNode,
    build_graph,
    run_graph,
)

from repro.experiments.figures import (
    Figure3Series,
    Figure5Series,
    HardwareAccuracySeries,
    SparsityMap,
    sparsity_maps,
)
from repro.experiments.headline import (
    PAPER_CONVNET_WIRE_PERCENT,
    PAPER_HEADLINE,
    PAPER_LENET_WIRE_PERCENT,
    HeadlineNumbers,
    crossbar_area_percent,
    mean_wire_percent,
    paper_headline_numbers,
    routing_area_percent_from_wires,
)
from repro.experiments.plan import (
    BaselineResult,
    ExperimentContext,
    ExperimentPlan,
    ExperimentRun,
    PlanPoint,
    build_plan,
    execute_spec,
    render_result,
    result_from_payload,
    result_to_payload,
)
from repro.experiments.presets import PAPER, SMALL, TINY, ExperimentScale, get_scale, scale_names
from repro.experiments.registry import REGISTRY, ExperimentRegistry
from repro.experiments.runner import (
    StrengthPointOutcome,
    StrengthPointTask,
    SweepEngine,
    TolerancePointOutcome,
    TolerancePointTask,
    run_strength_point,
    run_tolerance_point,
)
from repro.experiments.spec import (
    KINDS,
    METHODS,
    ExperimentSpec,
    baseline_fingerprint,
    point_fingerprint,
    spec_for_workload,
)
from repro.experiments.store import (
    RunStore,
    compare_artifacts,
    default_store_root,
    render_artifact,
)
from repro.experiments.sweeps import (
    StrengthPoint,
    StrengthSweepResult,
    TolerancePoint,
    ToleranceSweepResult,
)
from repro.experiments.table1 import Table1Result, Table1Row
from repro.experiments.table3 import Table3Result, Table3Row
from repro.experiments.training import TrainingSetup, train_baseline
from repro.experiments.workloads import (
    Workload,
    convnet_workload,
    get_workload,
    lenet_workload,
    mlp_workload,
    workload_names,
)

__all__ = [
    # Declarative experiment API
    "ExperimentSpec",
    "KINDS",
    "METHODS",
    "spec_for_workload",
    "point_fingerprint",
    "baseline_fingerprint",
    "ExperimentRegistry",
    "REGISTRY",
    "ExperimentPlan",
    "PlanPoint",
    "build_plan",
    "ExperimentContext",
    "ExperimentRun",
    "execute_spec",
    "ExperimentGraph",
    "GraphNode",
    "GraphExecution",
    "build_graph",
    "run_graph",
    "BaselineResult",
    "render_result",
    "result_to_payload",
    "result_from_payload",
    "RunStore",
    "default_store_root",
    "compare_artifacts",
    "render_artifact",
    # Scales and workloads
    "ExperimentScale",
    "TINY",
    "SMALL",
    "PAPER",
    "get_scale",
    "scale_names",
    "Workload",
    "lenet_workload",
    "convnet_workload",
    "mlp_workload",
    "get_workload",
    "workload_names",
    "TrainingSetup",
    "train_baseline",
    # Engine
    "SweepEngine",
    "TolerancePointTask",
    "TolerancePointOutcome",
    "StrengthPointTask",
    "StrengthPointOutcome",
    "run_tolerance_point",
    "run_strength_point",
    # Result views
    "Table1Result",
    "Table1Row",
    "Table3Result",
    "Table3Row",
    "Figure3Series",
    "Figure5Series",
    "HardwareAccuracySeries",
    "SparsityMap",
    "sparsity_maps",
    "TolerancePoint",
    "ToleranceSweepResult",
    "StrengthPoint",
    "StrengthSweepResult",
    "HeadlineNumbers",
    "paper_headline_numbers",
    "crossbar_area_percent",
    "routing_area_percent_from_wires",
    "mean_wire_percent",
    "PAPER_HEADLINE",
    "PAPER_LENET_WIRE_PERCENT",
    "PAPER_CONVNET_WIRE_PERCENT",
]
