"""Tests for the declarative experiment spec layer.

Covers the ``ExperimentScale.with_overrides`` validation fix, spec
validation, dict/JSON round-tripping, fingerprint stability (including
across processes), point-fingerprint invariance to execution policy, and the
planner's expansion.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments import (
    REGISTRY,
    TINY,
    ExperimentSpec,
    RunStore,
    SweepEngine,
    baseline_fingerprint,
    build_plan,
    execute_spec,
    mlp_workload,
    point_fingerprint,
    spec_for_workload,
)
from repro.experiments.store import render_artifact

_SRC = Path(__file__).resolve().parents[1] / "src"

FAST = dict(train_samples=120, test_samples=48, baseline_iterations=30)


class TestScaleOverrides:
    def test_known_overrides_apply(self):
        scale = TINY.with_overrides(train_samples=10, seed=3)
        assert scale.train_samples == 10
        assert scale.seed == 3
        assert scale.name == TINY.name

    def test_unknown_key_raises_value_error_listing_fields(self):
        """Regression: unknown keys used to surface as an opaque TypeError."""
        with pytest.raises(ValueError) as excinfo:
            TINY.with_overrides(train_sample=10)  # typo'd field
        message = str(excinfo.value)
        assert "train_sample" in message
        assert "train_samples" in message  # the valid fields are listed
        assert "batch_size" in message

    def test_overrides_still_validate(self):
        with pytest.raises(ConfigurationError):
            TINY.with_overrides(train_samples=0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table9")

    def test_sweep_requires_grid(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="sweep")

    def test_non_sweep_forbids_grid(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", grid=(0.1,))

    def test_method_must_match_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", method="group_deletion")

    def test_default_method_per_kind(self):
        assert ExperimentSpec(kind="table1").method == "rank_clipping"
        assert ExperimentSpec(kind="table3").method == "group_deletion"
        assert ExperimentSpec(kind="sweep", grid=(0.1,)).method == "rank_clipping"
        assert ExperimentSpec(kind="headline").method == "baseline"

    def test_value_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", tolerance=1.5)
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table3", strength=-0.1)
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", lowrank_method="qr")

    def test_name_defaults_to_kind(self):
        assert ExperimentSpec(kind="figure3").name == "figure3"
        assert ExperimentSpec(kind="figure3", name="mine").name == "mine"

    def test_scale_overrides_mapping_normalized(self):
        spec = ExperimentSpec(kind="baseline", scale_overrides={"seed": 3, "batch_size": 8})
        assert spec.scale_overrides == (("batch_size", 8), ("seed", 3))

    def test_engine_mapping_coerced(self):
        spec = ExperimentSpec(kind="baseline", engine={"workers": 2, "mode": "points"})
        assert isinstance(spec.engine, SweepEngine)
        assert spec.engine.workers == 2


class TestRoundTrip:
    def specs(self):
        return [
            ExperimentSpec(kind="table1", workload="lenet", scale="small"),
            ExperimentSpec(
                kind="sweep",
                method="group_deletion",
                workload="mlp",
                scale="tiny",
                scale_overrides=FAST,
                grid=(0.01, 0.08),
                include_small_matrices=True,
                seed=7,
                engine=SweepEngine(workers=2, per_point_seed=True),
                name="roundtrip",
            ),
            ExperimentSpec(kind="headline"),
        ]

    def test_to_dict_from_dict_equality(self):
        for spec in self.specs():
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        for spec in self.specs():
            assert ExperimentSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_from_dict_unknown_field(self):
        payload = ExperimentSpec(kind="table1").to_dict()
        payload["grids"] = [0.1]
        with pytest.raises(ExperimentError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert "grids" in str(excinfo.value)

    def test_from_dict_requires_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"workload": "mlp"})

    def test_engine_round_trip(self):
        engine = SweepEngine(workers=3, mode="lockstep", per_point_seed=True)
        assert SweepEngine.from_dict(engine.as_dict()) == engine
        with pytest.raises(ConfigurationError):
            SweepEngine.from_dict({"turbo": True})


#: A stored engine from before the retired knobs went: all nine keys, each at
#: its default.
NINE_KEY_ENGINE = {
    "workers": 1,
    "batched_eval": True,
    "memoize_routing": True,
    "structured_lasso": True,
    "inline_training_eval": False,
    "per_point_seed": False,
    "start_method": None,
    "mode": "points",
    "retry": SweepEngine().retry.as_dict(),
}


class TestRetiredEngineFields:
    def test_nine_key_spec_loads_and_renders(self, tmp_path):
        store = RunStore(tmp_path)
        run = execute_spec(ExperimentSpec(kind="headline"), store=store)
        artifact = store.load(run.fingerprint)
        artifact["spec"]["engine"] = dict(NINE_KEY_ENGINE)
        assert ExperimentSpec.from_dict(artifact["spec"]).engine == SweepEngine()
        assert "headline" in render_artifact(artifact)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("structured_lasso", False),
            ("memoize_routing", False),
            ("inline_training_eval", True),
        ],
    )
    def test_other_values_are_rejected(self, key, value):
        with pytest.raises(ConfigurationError) as excinfo:
            SweepEngine.from_dict({**NINE_KEY_ENGINE, key: value})
        assert key in str(excinfo.value) and "retired" in str(excinfo.value)

    def test_retired_keys_are_not_override_fields(self):
        with pytest.raises(ExperimentError) as excinfo:
            REGISTRY.get("figure8", batched_eval=True)
        assert "batched_eval" in str(excinfo.value)


class TestFingerprints:
    def test_name_is_excluded(self):
        spec = ExperimentSpec(kind="table1")
        renamed = spec.with_updates(name="other")
        assert spec.fingerprint() == renamed.fingerprint()

    def test_content_changes_fingerprint(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        assert spec.fingerprint() != spec.with_updates(grid=(0.1, 0.3)).fingerprint()
        assert spec.fingerprint() != spec.with_updates(workload="lenet").fingerprint()
        assert spec.fingerprint() != spec.with_updates(workers=2).fingerprint()

    def test_stable_across_processes(self):
        """The fingerprint must be a pure content hash, not id/hash-seeded."""
        spec = ExperimentSpec(
            kind="sweep",
            method="group_deletion",
            workload="mlp",
            scale="tiny",
            scale_overrides={"train_samples": 99},
            grid=(0.01, 0.05),
        )
        code = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec, point_fingerprint\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.fingerprint())\n"
            "print(point_fingerprint(spec, 1, 0.05))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # prove hash randomization is irrelevant
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        child_spec_fp, child_point_fp = result.stdout.split()
        assert child_spec_fp == spec.fingerprint()
        assert child_point_fp == point_fingerprint(spec, 1, 0.05)

    def test_point_fingerprint_ignores_execution_policy(self):
        """workers/mode/retry are bit-identical — points must be shareable."""
        base = ExperimentSpec(kind="sweep", method="group_deletion", grid=(0.01, 0.08))
        for overrides in (
            dict(workers=4),
            dict(mode="lockstep"),
            dict(retry={"max_attempts": 3}),
        ):
            other = base.with_updates(**overrides)
            assert point_fingerprint(base, 0, 0.01) == point_fingerprint(other, 0, 0.01)
        # ...but result-affecting engine fields do participate.
        seeded = base.with_updates(per_point_seed=True)
        assert point_fingerprint(base, 0, 0.01) != point_fingerprint(seeded, 0, 0.01)

    def test_point_fingerprint_ignores_grid_context(self):
        """A value shared by two grids must map to one point artifact."""
        narrow = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        wide = ExperimentSpec(kind="sweep", grid=(0.1, 0.2, 0.4))
        assert point_fingerprint(narrow, 1, 0.2) == point_fingerprint(wide, 1, 0.2)
        assert point_fingerprint(narrow, 0, 0.1) != point_fingerprint(narrow, 1, 0.2)

    def test_point_index_only_matters_with_per_point_seed(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        assert point_fingerprint(spec, 0, 0.2) == point_fingerprint(spec, 1, 0.2)
        seeded = spec.with_updates(per_point_seed=True)
        assert point_fingerprint(seeded, 0, 0.2) != point_fingerprint(seeded, 1, 0.2)

    def test_lambda_sweep_points_ignore_irrelevant_knobs(self):
        spec = ExperimentSpec(kind="sweep", method="group_deletion", grid=(0.05,))
        assert point_fingerprint(spec, 0, 0.05) == point_fingerprint(
            spec.with_updates(strength=0.9), 0, 0.05
        )
        # The shared clipping phase's ε and low-rank backend do matter.
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(tolerance=0.1), 0, 0.05
        )
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(lowrank_method="svd"), 0, 0.05
        )

    def test_epsilon_sweep_points_ignore_tolerance_field(self):
        """Each ε comes from the grid; the spec's tolerance field is unread."""
        spec = ExperimentSpec(kind="sweep", method="rank_clipping", grid=(0.05,))
        assert point_fingerprint(spec, 0, 0.05) == point_fingerprint(
            spec.with_updates(tolerance=0.5), 0, 0.05
        )
        # The clipping backend does matter for ε points.
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(lowrank_method="svd"), 0, 0.05
        )

    def test_baseline_fingerprint_scope(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1,))
        assert baseline_fingerprint(spec) == baseline_fingerprint(
            spec.with_updates(grid=(0.4,), tolerance=0.2, workers=3)
        )
        assert baseline_fingerprint(spec) != baseline_fingerprint(
            spec.with_updates(seed=9)
        )
        assert baseline_fingerprint(spec) != baseline_fingerprint(
            spec.with_updates(workload="lenet")
        )


class TestWorkloadAdapters:
    def test_spec_for_workload_preset_scale(self):
        workload = mlp_workload("tiny")
        spec = spec_for_workload("table1", workload)
        assert spec.workload == "mlp-blobs"
        assert spec.scale == "tiny"
        assert spec.scale_overrides == ()
        assert spec.resolved_scale() == TINY

    def test_spec_for_workload_overridden_scale(self):
        scale = TINY.with_overrides(train_samples=99, seed=5)
        workload = mlp_workload(scale)
        spec = spec_for_workload("baseline", workload)
        assert dict(spec.scale_overrides) == {"train_samples": 99, "seed": 5}
        assert spec.resolved_scale() == scale

    def test_resolved_workload_matches(self):
        spec = ExperimentSpec(kind="baseline", workload="mlp", scale="tiny")
        workload = spec.resolved_workload()
        assert workload.name == "mlp-blobs"
        assert workload.scale == TINY

    def test_with_updates_routes_engine_fields(self):
        spec = ExperimentSpec(kind="table1")
        updated = spec.with_updates(workers=2, tolerance=0.1)
        assert updated.engine.workers == 2
        assert updated.tolerance == 0.1
        with pytest.raises(ExperimentError) as excinfo:
            spec.with_updates(nonsense=1)
        assert "nonsense" in str(excinfo.value)


class TestBuildPlan:
    def test_sweep_plan(self):
        spec = ExperimentSpec(
            kind="sweep", method="group_deletion", grid=(0.01, 0.08), name="plan-test"
        )
        plan = build_plan(spec)
        assert [point.value for point in plan.points] == [0.01, 0.08]
        assert [point.label for point in plan.points] == ["lambda=0.01", "lambda=0.08"]
        assert plan.execution == "serial"
        assert len({point.fingerprint for point in plan.points}) == 2
        assert build_plan(spec.with_updates(workers=2)).execution == "parallel"
        assert build_plan(spec.with_updates(mode="lockstep")).execution == "lockstep"
        assert "plan-test" in plan.describe()

    def test_single_kind_plan(self):
        plan = build_plan(ExperimentSpec(kind="table1"))
        assert len(plan.points) == 1
        assert plan.points[0].value is None
        assert plan.execution == "serial"

    def test_epsilon_sweep_keeps_points_path(self):
        spec = ExperimentSpec(kind="sweep", method="rank_clipping", grid=(0.1,), engine=SweepEngine(mode="lockstep"))
        assert build_plan(spec).execution == "serial"
