"""Declarative experiment specifications: the spec → plan → run → artifact API.

An :class:`ExperimentSpec` is a frozen, JSON-serializable description of one
paper experiment: a workload (by registry name), a scale preset (plus
overrides), a method (``rank_clipping`` / ``group_deletion`` / ``baseline``),
an optional sweep grid of ε or λ values, the :class:`~repro.experiments.runner.SweepEngine`
execution policy, and a seed policy.  Every paper deliverable — Tables 1 and
3, Figures 3/5 and the Figure 6–8 sweeps, the headline area numbers — is a
spec ``kind``; the planner (:mod:`repro.experiments.plan`) expands a spec
into the existing engine point tasks and the run store
(:mod:`repro.experiments.store`) persists the results as content-addressed
JSON artifacts.

Specs round-trip through plain dicts (:meth:`ExperimentSpec.to_dict` /
:meth:`ExperimentSpec.from_dict`) and hash to stable fingerprints:

* :meth:`ExperimentSpec.fingerprint` addresses the *run artifact* — two specs
  with the same content (the display ``name`` is excluded) share one
  artifact.
* :func:`point_fingerprint` addresses one *sweep point result*.  It excludes
  every engine field that is guaranteed bit-identical across execution
  policies (``workers``, ``mode``, ``retry``) as well as spec fields
  irrelevant to the point's training, so a point computed by a serial run can
  be resumed by a parallel or lockstep run — and by a run with a different
  grid that shares the value.
* :func:`baseline_fingerprint` addresses the shared dense-baseline training,
  which depends only on the workload, scale and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.presets import ExperimentScale, get_scale
from repro.experiments.runner import SweepEngine
from repro.experiments.workloads import Workload, get_workload
from repro.hardware.sim import HardwareConfig

#: Experiment families the planner knows how to expand.
KINDS = ("table1", "table3", "figure3", "figure5", "sweep", "headline", "baseline")

#: Kinds whose trained networks can ride the device-level hardware simulator
#: (their point results carry per-network payload dicts; the trace/table kinds
#: would need a different result shape).
HARDWARE_KINDS = ("sweep", "baseline")

#: Training methods a spec can select.
METHODS = ("rank_clipping", "group_deletion", "baseline")

#: Methods each kind admits; the first entry is the kind's default.
KIND_METHODS: Dict[str, Tuple[str, ...]] = {
    "table1": ("rank_clipping",),
    "figure3": ("rank_clipping",),
    "table3": ("group_deletion",),
    "figure5": ("group_deletion",),
    "sweep": ("rank_clipping", "group_deletion"),
    "baseline": ("baseline",),
    "headline": ("baseline",),
}

#: Engine fields that can change a sweep point's *result*: the per-point data
#: stream.  ``workers``, ``mode`` and ``retry`` are guarded bit-identical.
_ENGINE_RESULT_FIELDS = ("per_point_seed",)


def _digest(payload: Mapping[str, Any]) -> str:
    """Stable short hash of a JSON-serializable mapping."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    Attributes
    ----------
    kind:
        Which deliverable to produce — one of :data:`KINDS`.
    workload:
        Workload registry name (``lenet``, ``convnet``, ``mlp``, …).
    scale:
        Scale preset name (``tiny`` / ``small`` / ``paper``).
    scale_overrides:
        Per-field overrides applied on top of the preset (stored as a sorted
        tuple of ``(field, value)`` pairs so specs stay hashable; mappings
        are accepted and normalized).
    method:
        ``rank_clipping`` / ``group_deletion`` / ``baseline``.  Defaults to
        the kind's natural method; only ``kind="sweep"`` admits a choice.
    grid:
        The swept ε (rank clipping) or λ (group deletion) values.  Required
        for ``kind="sweep"``, forbidden otherwise.
    tolerance:
        Clipping tolerance ε for the single-run kinds and for the λ sweep's
        shared clipping phase.
    strength:
        Group-Lasso λ for the single-run deletion kinds.
    include_small_matrices:
        Extend deletion to matrices that fit a single crossbar.
    lowrank_method:
        Low-rank backend for clipping (``pca`` / ``svd``).
    seed:
        Optional seed override (replaces the scale preset's seed).
    hardware:
        Optional tuple of :class:`~repro.hardware.sim.HardwareConfig` device
        corners.  When non-empty (``kind`` must be in
        :data:`HARDWARE_KINDS`) every finished point network is additionally
        evaluated on the crossbar simulator under each corner, and the
        simulated accuracies land in the point payloads keyed by
        ``config.label``.  Participates in spec *and* point fingerprints —
        hardware-evaluated points are distinct artifacts from software-only
        ones — but an empty tuple is excluded, so pre-existing fingerprints
        are unchanged.
    engine:
        The :class:`~repro.experiments.runner.SweepEngine` execution policy.
    name:
        Display name (registry key / artifact label).  Excluded from the
        fingerprint: renaming a spec does not re-run it.
    """

    kind: str
    workload: str = "mlp"
    scale: str = "tiny"
    scale_overrides: Tuple[Tuple[str, Any], ...] = ()
    method: str = ""
    grid: Tuple[float, ...] = ()
    tolerance: float = 0.03
    strength: float = 0.01
    include_small_matrices: bool = False
    lowrank_method: str = "pca"
    seed: Optional[int] = None
    hardware: Tuple[HardwareConfig, ...] = ()
    engine: SweepEngine = SweepEngine()
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ExperimentError(
                f"unknown experiment kind {self.kind!r}; expected one of {list(KINDS)}"
            )
        method = self.method or KIND_METHODS[self.kind][0]
        object.__setattr__(self, "method", method)
        if method not in KIND_METHODS[self.kind]:
            raise ExperimentError(
                f"kind {self.kind!r} does not support method {method!r}; "
                f"expected one of {list(KIND_METHODS[self.kind])}"
            )
        if not isinstance(self.engine, SweepEngine):
            if isinstance(self.engine, Mapping):
                object.__setattr__(self, "engine", SweepEngine.from_dict(self.engine))
            else:
                raise ExperimentError(
                    f"engine must be a SweepEngine or mapping, got {type(self.engine).__name__}"
                )
        object.__setattr__(self, "grid", tuple(float(value) for value in self.grid))
        overrides = self.scale_overrides
        if isinstance(overrides, Mapping):
            overrides = overrides.items()
        object.__setattr__(
            self,
            "scale_overrides",
            tuple(sorted((str(key), value) for key, value in overrides)),
        )
        if self.kind == "sweep" and not self.grid:
            raise ExperimentError("kind='sweep' requires a non-empty grid of ε/λ values")
        if self.kind != "sweep" and self.grid:
            raise ExperimentError(
                f"kind={self.kind!r} takes no sweep grid (got {len(self.grid)} values)"
            )
        if not (0.0 <= self.tolerance <= 1.0):
            raise ExperimentError(f"tolerance must be in [0, 1], got {self.tolerance}")
        if self.strength < 0:
            raise ExperimentError(f"strength must be >= 0, got {self.strength}")
        if self.lowrank_method not in ("pca", "svd"):
            raise ExperimentError(
                f"lowrank_method must be 'pca' or 'svd', got {self.lowrank_method!r}"
            )
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        hardware = []
        for entry in self.hardware:
            if isinstance(entry, HardwareConfig):
                hardware.append(entry)
            elif isinstance(entry, Mapping):
                hardware.append(HardwareConfig.from_dict(entry))
            else:
                raise ExperimentError(
                    "hardware entries must be HardwareConfig objects or mappings, "
                    f"got {type(entry).__name__}"
                )
        object.__setattr__(self, "hardware", tuple(hardware))
        if hardware and self.kind not in HARDWARE_KINDS:
            raise ExperimentError(
                f"kind {self.kind!r} does not support hardware evaluation; "
                f"expected one of {list(HARDWARE_KINDS)}"
            )
        labels = [config.label for config in hardware]
        if len(set(labels)) != len(labels):
            raise ExperimentError(
                f"hardware corners must have distinct labels, got {labels}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view; round-trips exactly through :meth:`from_dict`."""
        return {
            "name": self.name,
            "kind": self.kind,
            "workload": self.workload,
            "scale": self.scale,
            "scale_overrides": {key: value for key, value in self.scale_overrides},
            "method": self.method,
            "grid": list(self.grid),
            "tolerance": self.tolerance,
            "strength": self.strength,
            "include_small_matrices": self.include_small_matrices,
            "lowrank_method": self.lowrank_method,
            "seed": self.seed,
            "hardware": [config.as_dict() for config in self.hardware],
            "engine": self.engine.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys raise :class:`~repro.exceptions.ExperimentError` listing
        the valid field names.
        """
        payload = dict(payload)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ExperimentError(
                f"unknown ExperimentSpec field(s) {unknown}; valid fields: {sorted(known)}"
            )
        if "kind" not in payload:
            raise ExperimentError("ExperimentSpec payload is missing the 'kind' field")
        return cls(**payload)

    def to_json(self) -> str:
        """Pretty JSON rendering (what ``python -m repro`` writes and reads)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # ----------------------------------------------------------- fingerprints
    def canonical(self) -> Dict[str, Any]:
        """The content that addresses this spec's run artifact.

        An empty ``hardware`` tuple is dropped so specs that never touch the
        simulator keep the fingerprints (and stored artifacts) they had
        before the hardware section existed.  The engine's ``retry`` policy
        is dropped unconditionally: retries, timeouts, and pool supervision
        are guaranteed bit-identical to a clean run (fresh task copy, same
        derived per-point seed), so how failures are handled must never
        re-address what was computed.
        """
        payload = self.to_dict()
        payload.pop("name")
        if not payload["hardware"]:
            payload.pop("hardware")
        payload["engine"] = {
            key: value for key, value in payload["engine"].items() if key != "retry"
        }
        return payload

    def fingerprint(self) -> str:
        """Stable content hash addressing the spec's run artifact."""
        return _digest(self.canonical())

    # ------------------------------------------------------------- resolution
    def resolved_scale(self) -> ExperimentScale:
        """The :class:`ExperimentScale` this spec runs at (overrides applied)."""
        scale = get_scale(self.scale)
        overrides = dict(self.scale_overrides)
        if self.seed is not None:
            overrides["seed"] = self.seed
        return scale.with_overrides(**overrides) if overrides else scale

    def resolved_workload(self) -> Workload:
        """Instantiate the workload this spec names, at the resolved scale."""
        return get_workload(self.workload, self.resolved_scale())

    def with_updates(self, **kwargs) -> "ExperimentSpec":
        """Copy with spec- or engine-level fields replaced.

        Engine field names (``workers``, ``mode``, ``per_point_seed``, …) are
        routed into a replaced engine; everything else must be a spec field.
        """
        engine_fields = {f.name for f in fields(SweepEngine)}
        engine_kwargs = {
            key: kwargs.pop(key) for key in list(kwargs) if key in engine_fields
        }
        spec = self
        if engine_kwargs:
            spec = replace(spec, engine=replace(spec.engine, **engine_kwargs))
        if kwargs:
            known = {f.name for f in fields(type(self))}
            unknown = sorted(set(kwargs) - known)
            if unknown:
                raise ExperimentError(
                    f"unknown ExperimentSpec/engine field(s) {unknown}; valid fields: "
                    f"{sorted(known | engine_fields)}"
                )
            spec = replace(spec, **kwargs)
        return spec


# ------------------------------------------------------------------ fingerprints
def point_fingerprint(spec: ExperimentSpec, index: int, value: Optional[float]) -> str:
    """Content hash of one plan point's *result*.

    Includes only what can change the point's numbers: the workload/scale/
    seed, the method and its hyper-parameters, the point's swept value, and
    the engine fields without a bit-identity guarantee.  The point index
    participates only under ``per_point_seed`` (where it derives the data
    stream); the surrounding grid never does, so runs with overlapping grids
    share point artifacts.
    """
    payload = spec.canonical()
    payload.pop("grid")
    engine = payload.pop("engine")
    payload["engine"] = {key: engine[key] for key in _ENGINE_RESULT_FIELDS}
    payload["point"] = {
        "value": value,
        "index": index if spec.engine.per_point_seed else None,
    }
    if spec.kind == "headline":
        # Closed-form from the paper's published tables: nothing else matters.
        return _digest({"kind": "headline"})
    if spec.kind == "baseline":
        for key in ("tolerance", "strength", "include_small_matrices", "lowrank_method"):
            payload.pop(key)
    if spec.method == "rank_clipping":
        payload.pop("strength")
        payload.pop("include_small_matrices")
        if spec.kind == "sweep":
            # Each point's ε comes from the grid; the tolerance field is unread.
            payload.pop("tolerance")
    if spec.kind == "sweep" and spec.method == "group_deletion":
        # λ comes from the grid; tolerance and lowrank_method still shape the
        # shared clipping phase every point starts from.
        payload.pop("strength")
    return _digest(payload)


def baseline_fingerprint(spec: ExperimentSpec) -> str:
    """Content hash of the shared dense-baseline training phase."""
    return _digest(
        {
            "phase": "baseline",
            "workload": spec.workload,
            "scale": spec.scale,
            "scale_overrides": dict(spec.scale_overrides),
            "seed": spec.seed,
        }
    )


# ------------------------------------------------------------------- adapters
def scale_spec_fields(scale: ExperimentScale) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
    """``(preset name, overrides)`` reproducing ``scale`` via ``resolved_scale``.

    A scale named after a preset is diffed against that preset; any other
    scale is encoded as overrides (including its ``name``) on ``tiny``.
    """
    try:
        base = get_scale(scale.name)
    except ConfigurationError:
        base = get_scale("tiny")
    overrides = tuple(
        sorted(
            (f.name, getattr(scale, f.name))
            for f in fields(scale)
            if getattr(scale, f.name) != getattr(base, f.name)
        )
    )
    return base.name, overrides


def spec_for_workload(
    kind: str,
    workload: Workload,
    *,
    engine: Optional[SweepEngine] = None,
    name: str = "",
    **kwargs,
) -> ExperimentSpec:
    """Build a spec matching an already-instantiated :class:`Workload`.

    The workload's name and scale are lifted into spec fields, so callers
    holding a workload object (and often a trained baseline) run it as
    ``execute_spec(spec_for_workload(kind, workload, ...),
    context=ExperimentContext(workload=workload, ...))`` — the concrete
    workload and any pre-trained material travel in the
    :class:`~repro.experiments.plan.ExperimentContext`.
    """
    scale_name, overrides = scale_spec_fields(workload.scale)
    return ExperimentSpec(
        kind=kind,
        workload=workload.name,
        scale=scale_name,
        scale_overrides=overrides,
        engine=engine if engine is not None else SweepEngine(),
        name=name,
        **kwargs,
    )
