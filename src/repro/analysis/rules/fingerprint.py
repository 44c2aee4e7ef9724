"""Fingerprint-coverage rule: resume keys may never silently lose a field.

The run store (PR 4) addresses artifacts and sweep points by content
fingerprints computed from :class:`ExperimentSpec` (which embeds the scale
overrides, every :class:`HardwareConfig` corner and the :class:`SweepEngine`
execution policy).  A field added to one of those dataclasses but left out
of the fingerprint makes two *different* experiments hash identically —
resume then silently serves results computed under other settings,
corrupting the shared artifact pool.

This is a semantic (import-based) check, not an AST pattern: it runs the
real serialization/fingerprint code against the live dataclasses.

Three layers:

1. **Acknowledged-field snapshot** — every field must be listed in
   :data:`ACKNOWLEDGED_FIELDS` or :data:`EXCLUDED_FIELDS`.  Adding a field
   therefore *forces* a conscious decision here: either it participates in
   fingerprints (add to the acknowledged set after wiring it through) or
   it is display-only (add to the excluded set, with a comment saying why).
2. **Serialization coverage** — a probe :class:`ExperimentSpec` is built
   and every acknowledged field must actually survive into ``to_dict()``
   and ``canonical()`` (resp. ``HardwareConfig.as_dict()`` and
   ``canonical()["engine"]``); the snapshot cannot drift from what the code
   really hashes.
3. **Scale-override coverage** — each :class:`ExperimentScale` field is
   perturbed on the ``tiny`` preset and must round-trip through
   ``scale_spec_fields`` into ``canonical()["scale_overrides"]``.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ProjectRule, register

#: Fields confirmed to participate in content fingerprints.  Extend this set
#: only after verifying the new field reaches ``canonical()`` /
#: ``as_dict()`` (layer 2 fails otherwise).
ACKNOWLEDGED_FIELDS: Dict[str, Set[str]] = {
    "ExperimentSpec": {
        "kind",
        "workload",
        "scale",
        "scale_overrides",
        "method",
        "grid",
        "tolerance",
        "strength",
        "include_small_matrices",
        "lowrank_method",
        "seed",
        "hardware",
        "engine",
    },
    "ExperimentScale": {
        "name",
        "train_samples",
        "test_samples",
        "image_size",
        "network_scale",
        "baseline_iterations",
        "clip_iterations",
        "clip_interval",
        "deletion_iterations",
        "finetune_iterations",
        "batch_size",
        "learning_rate",
        "momentum",
        "record_interval",
        "eval_interval",
        "seed",
    },
    "HardwareConfig": {
        "bits",
        "program_noise",
        "program_noise_additive",
        "read_noise",
        "fault_rate",
        "stuck_on_fraction",
        "adc_bits",
        "seed",
    },
    "SweepEngine": {"workers", "per_point_seed", "mode"},
}

#: Fields deliberately *outside* the fingerprint, each with a reason:
#: ExperimentSpec.name is a display label — renaming a spec must not re-run it.
#: SweepEngine.retry is pure execution policy — retries, timeouts and pool
#: supervision are bit-identical to a clean run, so canonical() drops it.
EXCLUDED_FIELDS: Dict[str, Set[str]] = {
    "ExperimentSpec": {"name"},
    "ExperimentScale": set(),
    "HardwareConfig": set(),
    "SweepEngine": {"retry"},
}


def _names(cls) -> Set[str]:
    return {f.name for f in dataclass_fields(cls)}


def _perturb(value):
    """A valid, different value for an :class:`ExperimentScale` field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, str):
        return value + "_probe"
    return None


def coverage_messages(
    spec_cls=None,
    scale_cls=None,
    hardware_cls=None,
    engine_cls=None,
    *,
    acknowledged: Optional[Dict[str, Set[str]]] = None,
    excluded: Optional[Dict[str, Set[str]]] = None,
) -> List[Tuple[str, str]]:
    """Run the three coverage layers, returning ``(class name, message)`` pairs.

    The class parameters are injectable so the rule's own tests can prove
    that an unacknowledged field is caught; production use passes nothing
    and checks the real dataclasses.
    """
    from repro.experiments.presets import ExperimentScale, get_scale
    from repro.experiments.runner import SweepEngine
    from repro.experiments.spec import ExperimentSpec, scale_spec_fields
    from repro.hardware.sim import HardwareConfig

    spec_cls = spec_cls or ExperimentSpec
    scale_cls = scale_cls or ExperimentScale
    hardware_cls = hardware_cls or HardwareConfig
    engine_cls = engine_cls or SweepEngine
    acknowledged = acknowledged if acknowledged is not None else ACKNOWLEDGED_FIELDS
    excluded = excluded if excluded is not None else EXCLUDED_FIELDS

    problems: List[Tuple[str, str]] = []

    # ---- layer 1: acknowledged-field snapshot
    for cls, key in (
        (spec_cls, "ExperimentSpec"),
        (scale_cls, "ExperimentScale"),
        (hardware_cls, "HardwareConfig"),
        (engine_cls, "SweepEngine"),
    ):
        names = _names(cls)
        known = acknowledged.get(key, set()) | excluded.get(key, set())
        for name in sorted(names - known):
            problems.append(
                (
                    key,
                    f"field {name!r} is neither acknowledged as fingerprinted "
                    "nor listed as excluded; wire it into the content "
                    "fingerprint (or exclude it with a reason) and update "
                    "repro.analysis.rules.fingerprint accordingly — otherwise "
                    "runs differing only in this field resume each other's "
                    "artifacts",
                )
            )
        for name in sorted(known - names):
            problems.append(
                (
                    key,
                    f"acknowledged/excluded field {name!r} no longer exists on "
                    f"{key}; remove it from repro.analysis.rules.fingerprint",
                )
            )

    # ---- layer 2: serialization coverage against the live code paths
    try:
        probe = spec_cls(
            kind="sweep",
            grid=(0.05,),
            hardware=(hardware_cls(bits=4),),
            engine=engine_cls(),
        )
    except Exception as error:  # pragma: no cover - spec construction contract
        problems.append(
            ("ExperimentSpec", f"could not build a probe spec for coverage: {error}")
        )
        return problems
    spec_fields = _names(spec_cls)
    serialized = set(probe.to_dict())
    canonical = set(probe.canonical())
    spec_excluded = excluded.get("ExperimentSpec", set())
    for name in sorted(spec_fields - serialized - spec_excluded):
        problems.append(
            (
                "ExperimentSpec",
                f"field {name!r} is missing from to_dict(), so it can never "
                "reach the content fingerprint",
            )
        )
    for name in sorted((serialized - canonical) - spec_excluded):
        problems.append(
            (
                "ExperimentSpec",
                f"field {name!r} is serialized but dropped from canonical() "
                "without being in the exclusion list; it silently does not "
                "participate in fingerprints",
            )
        )
    for name in sorted(spec_excluded & canonical):
        problems.append(
            (
                "ExperimentSpec",
                f"field {name!r} is listed as excluded but still appears in "
                "canonical(); the exclusion list is stale",
            )
        )

    hardware_probe = hardware_cls(bits=4)
    hw_serialized = set(hardware_probe.as_dict())
    hw_excluded = excluded.get("HardwareConfig", set())
    for name in sorted(_names(hardware_cls) - hw_serialized - hw_excluded):
        problems.append(
            (
                "HardwareConfig",
                f"field {name!r} is missing from as_dict(), so hardware "
                "corners differing in it fingerprint identically",
            )
        )

    engine_canonical = set(probe.canonical()["engine"])
    engine_excluded = excluded.get("SweepEngine", set())
    for name in sorted(_names(engine_cls) - engine_canonical - engine_excluded):
        problems.append(
            (
                "SweepEngine",
                f"field {name!r} is missing from canonical()['engine'], so "
                "specs differing only in it fingerprint identically",
            )
        )
    for name in sorted(engine_excluded & engine_canonical):
        problems.append(
            (
                "SweepEngine",
                f"field {name!r} is listed as excluded but still appears in "
                "canonical()['engine']; the exclusion list is stale",
            )
        )

    # ---- layer 3: scale fields must round-trip through scale_overrides
    if scale_cls is ExperimentScale:
        base = get_scale("tiny")
        for field in dataclass_fields(scale_cls):
            probe_value = _perturb(getattr(base, field.name))
            if probe_value is None:
                problems.append(
                    (
                        "ExperimentScale",
                        f"cannot build a perturbed probe for field {field.name!r}; "
                        "extend _perturb in repro.analysis.rules.fingerprint",
                    )
                )
                continue
            modified = base.with_overrides(**{field.name: probe_value})
            scale_name, overrides = scale_spec_fields(modified)
            override_fields = {name for name, _value in overrides}
            if field.name not in override_fields:
                problems.append(
                    (
                        "ExperimentScale",
                        f"perturbing field {field.name!r} does not surface in "
                        "scale_spec_fields overrides, so two scales differing "
                        "only in it fingerprint identically",
                    )
                )
                continue
            spec = spec_cls(
                kind="baseline", scale=scale_name, scale_overrides=overrides
            )
            if field.name not in spec.canonical()["scale_overrides"]:
                problems.append(
                    (
                        "ExperimentScale",
                        f"override for field {field.name!r} does not reach "
                        "canonical()['scale_overrides']",
                    )
                )
    return problems


def _anchor(key: str) -> Tuple[str, int]:
    """``(relpath, line)`` of the class a finding talks about."""
    import repro

    modules = {
        "ExperimentSpec": "experiments/spec.py",
        "ExperimentScale": "experiments/presets.py",
        "HardwareConfig": "hardware/sim.py",
        "SweepEngine": "experiments/runner.py",
    }
    package_root = Path(repro.__file__).resolve().parent
    path = package_root / modules[key]
    repo_root = package_root.parents[1]
    try:
        return path.relative_to(repo_root).as_posix(), 1
    except ValueError:  # pragma: no cover - non-checkout install layout
        return path.as_posix(), 1


@register
class FingerprintCoverageRule(ProjectRule):
    """Every spec/scale/hardware/engine field is fingerprinted or explicitly excluded."""

    id = "fingerprint-coverage"
    summary = (
        "every ExperimentSpec / ExperimentScale / HardwareConfig / SweepEngine "
        "field must participate in content fingerprints or sit on the "
        "exclusion list"
    )
    rationale = (
        "RunStore resume trusts fingerprints as identity: a field outside "
        "the hash makes two different experiments collide, so resume serves "
        "results computed under other settings — a corrupted shared artifact "
        "store instead of one flaky test."
    )

    def check_project(self) -> Iterator[Finding]:
        for key, message in coverage_messages():
            path, line = _anchor(key)
            yield Finding(
                path=path,
                line=line,
                rule=self.id,
                message=f"{key}: {message}",
            )
