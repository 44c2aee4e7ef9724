"""Tests for the run store: artifacts, resume, point reuse, compare/render.

The acceptance contract these tests guard: re-running a spec whose artifact
is complete performs **zero new training**; overlapping grids and different
engine policies reuse each other's point artifacts; stored artifacts rebuild
the same result views (``format_table``) without retraining.
"""

import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.graph as graph_module
from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentContext,
    ExperimentSpec,
    RunStore,
    build_plan,
    compare_artifacts,
    execute_spec,
    mlp_workload,
    render_artifact,
    spec_for_workload,
)
from repro.experiments.plan import run_environment
from repro.experiments.store import flatten_result

FAST = dict(
    train_samples=120,
    test_samples=48,
    baseline_iterations=30,
    clip_iterations=20,
    clip_interval=10,
    deletion_iterations=20,
    finetune_iterations=10,
    record_interval=10,
    eval_interval=20,
    batch_size=24,
)


def sweep_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        scale_overrides=FAST,
        grid=(0.05, 0.3),
        name="store-sweep",
    )
    return spec.with_updates(**overrides) if overrides else spec


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def _forbid_training(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - failing is the assertion
        raise AssertionError("train_baseline was called on a fully-resumed run")

    # The graph's baseline node is the only caller of train_baseline.
    monkeypatch.setattr(graph_module, "train_baseline", boom)


def test_run_environment_starts_no_subprocess(monkeypatch):
    expected = platform.platform()

    def refuse(*args, **kwargs):
        raise AssertionError("run_environment started a subprocess")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    # A fresh run has neither platform's uname (with its processor) nor its
    # platform string cached yet.
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})
    environment = run_environment()
    assert environment["machine"] == platform.machine()
    if sys.platform.startswith("linux"):
        assert environment["platform"] == expected


class TestArtifactLifecycle:
    def test_execute_persists_complete_artifact(self, store):
        spec = sweep_spec()
        run = execute_spec(spec, store=store)
        assert run.artifact_path is not None and run.artifact_path.exists()
        artifact = store.load(spec.fingerprint())
        assert artifact["complete"] is True
        assert artifact["name"] == "store-sweep"
        assert len(artifact["points"]) == 2
        assert artifact["baseline"]["accuracy"] is not None
        assert artifact["environment"]["python"]
        assert artifact["timings"]["total_s"] > 0
        # The embedded spec round-trips to the original.
        assert ExperimentSpec.from_dict(artifact["spec"]) == spec

    def test_find_and_list(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        fingerprint = spec.fingerprint()
        assert store.find(fingerprint)["fingerprint"] == fingerprint
        assert store.find(fingerprint[:6])["fingerprint"] == fingerprint
        assert store.find("store-sweep")["fingerprint"] == fingerprint
        rows = store.list_runs()
        assert len(rows) == 1 and rows[0]["complete"]
        with pytest.raises(ExperimentError):
            store.find("no-such-run")

    def test_save_requires_fingerprint(self, store):
        with pytest.raises(ExperimentError):
            store.save({"name": "nope"})

    def test_delete(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        assert store.delete(spec.fingerprint()) is True
        assert store.delete(spec.fingerprint()) is False
        assert store.load(spec.fingerprint()) is None

    def test_corrupt_artifact_treated_as_absent_and_healed(self, store):
        """A truncated artifact must not brick the store — it recomputes."""
        spec = sweep_spec()
        execute_spec(spec, store=store)
        store.path(spec.fingerprint()).write_text("{ truncated")
        assert store.load(spec.fingerprint()) is None
        assert store.list_runs() == []
        healed = execute_spec(spec, store=store)
        assert healed.computed_points == 2
        assert store.load(spec.fingerprint())["complete"] is True

    def test_corrupt_artifact_is_quarantined_not_deleted(self, store, caplog):
        """Unparseable artifacts move to ``<name>.json.corrupt`` for forensics."""
        spec = sweep_spec()
        execute_spec(spec, store=store)
        path = store.path(spec.fingerprint())
        path.write_text("{ truncated")
        assert store.load(spec.fingerprint()) is None
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists() and not path.exists()
        assert quarantined.read_text() == "{ truncated"
        assert any("quarantined" in record.message for record in caplog.records)
        # Quarantined files are invisible to every store listing/lookup.
        assert store.fingerprints() == []

    def test_tampered_payload_fails_checksum_and_quarantines(self, store):
        """Valid JSON with a modified payload must not load: sha256 guards it."""
        import json as json_module

        spec = sweep_spec()
        execute_spec(spec, store=store)
        path = store.path(spec.fingerprint())
        artifact = json_module.loads(path.read_text())
        assert "payload_sha256" in artifact
        artifact["result"]["baseline_accuracy"] = 0.123456
        path.write_text(json_module.dumps(artifact))
        assert store.load(spec.fingerprint()) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_checksum_less_legacy_artifact_still_loads(self, store):
        """Artifacts written before the integrity check load unverified."""
        import json as json_module

        spec = sweep_spec()
        first = execute_spec(spec, store=store)
        path = store.path(spec.fingerprint())
        artifact = json_module.loads(path.read_text())
        del artifact["payload_sha256"]
        path.write_text(json_module.dumps(artifact))
        loaded = store.load(spec.fingerprint())
        assert loaded is not None and loaded["complete"] is True
        resumed = execute_spec(spec, store=store)
        assert resumed.computed_points == 0
        assert resumed.payload == first.payload

    def test_loaded_artifact_does_not_leak_the_checksum_field(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        assert "payload_sha256" not in store.load(spec.fingerprint())

    def test_store_rejects_context_supplied_material(self, store):
        """Fingerprints cannot see context workloads/baselines — refuse the store."""
        workload = mlp_workload("tiny")
        spec = spec_for_workload("baseline", workload)
        with pytest.raises(ExperimentError, match="context-supplied"):
            execute_spec(
                spec, store=store, context=ExperimentContext(workload=workload)
            )


class TestResume:
    def test_complete_artifact_resumes_with_zero_training(self, store, monkeypatch):
        spec = sweep_spec()
        first = execute_spec(spec, store=store)
        _forbid_training(monkeypatch)
        second = execute_spec(spec, store=store)
        assert second.computed_points == 0
        assert second.reused_points == 2
        assert second.payload == first.payload
        assert second.result.points == first.result.points
        assert second.result.format_table() == first.result.format_table()

    def test_fresh_recomputes(self, store):
        spec = sweep_spec()
        first = execute_spec(spec, store=store)
        again = execute_spec(spec, store=store, resume=False)
        assert again.computed_points == 2
        assert again.result.points == first.result.points  # deterministic

    def test_grid_extension_reuses_stored_points(self, store):
        spec = sweep_spec()
        first = execute_spec(spec, store=store)
        extended = execute_spec(sweep_spec(grid=(0.05, 0.3, 0.6)), store=store)
        assert extended.reused_points == 2
        assert extended.computed_points == 1
        assert extended.result.points[:2] == first.result.points
        assert extended.result.baseline_accuracy == first.result.baseline_accuracy

    def test_engine_policy_change_reuses_points(self, store, monkeypatch):
        """Serial, parallel and lockstep artifacts share point results."""
        spec = sweep_spec(method="group_deletion", include_small_matrices=True, grid=(0.01, 0.08))
        first = execute_spec(spec, store=store)
        _forbid_training(monkeypatch)
        lockstep = execute_spec(spec.with_updates(mode="lockstep"), store=store)
        assert lockstep.computed_points == 0
        assert lockstep.result.points == first.result.points
        # A different spec fingerprint, so a second artifact exists...
        assert len(store.fingerprints()) == 2
        # ...whose points are all marked as reused.
        artifact = store.load(spec.with_updates(mode="lockstep").fingerprint())
        assert all(entry["reused"] for entry in artifact["points"].values())

    def test_single_kind_resume(self, store, monkeypatch):
        spec = ExperimentSpec(
            kind="table1", workload="mlp", scale="tiny", scale_overrides=FAST
        )
        first = execute_spec(spec, store=store)
        _forbid_training(monkeypatch)
        second = execute_spec(spec, store=store)
        assert second.computed_points == 0
        assert second.result.as_dict() == first.result.as_dict()
        assert second.result.format_table() == first.result.format_table()
        # Reloaded artifacts drop the in-memory training trace by design.
        assert second.result.clipping_result is None

    def test_headline_runs_without_store(self):
        run = execute_spec(ExperimentSpec(kind="headline"))
        assert run.artifact_path is None
        assert run.result.lenet_crossbar_area_percent > 0


class TestJournal:
    """The mid-run journal: atomic per-point progress under a plan fingerprint."""

    def test_append_load_round_trip(self, store):
        store.append_journal("planfp", "point-a", {"accuracy": 0.5, "ranks": {"d": 3}})
        store.append_journal("planfp", "point-b", {"accuracy": 0.75})
        loaded = store.load_journal("planfp")
        assert loaded == {
            "point-a": {"accuracy": 0.5, "ranks": {"d": 3}},
            "point-b": {"accuracy": 0.75},
        }

    def test_later_entries_win(self, store):
        store.append_journal("planfp", "point-a", {"accuracy": 0.5})
        store.append_journal("planfp", "point-a", {"accuracy": 0.9})
        assert store.load_journal("planfp")["point-a"] == {"accuracy": 0.9}

    def test_truncated_line_skipped(self, store, caplog):
        store.append_journal("planfp", "point-a", {"accuracy": 0.5})
        with open(store.journal_path("planfp"), "a", encoding="utf-8") as handle:
            handle.write('{"point": "point-b", "payl')  # torn write
        loaded = store.load_journal("planfp")
        assert set(loaded) == {"point-a"}
        assert any("journal" in record.message for record in caplog.records)

    def test_tampered_line_fails_checksum(self, store):
        store.append_journal("planfp", "point-a", {"accuracy": 0.5})
        path = store.journal_path("planfp")
        text = path.read_text().replace("0.5", "0.9")
        path.write_text(text)
        assert store.load_journal("planfp") == {}

    def test_clear(self, store):
        store.append_journal("planfp", "point-a", {"accuracy": 0.5})
        store.clear_journal("planfp")
        assert store.load_journal("planfp") == {}
        assert not store.journal_path("planfp").exists()

    def test_missing_journal_is_empty(self, store):
        assert store.load_journal("no-such-plan") == {}


class TestCompareAndRender:
    def test_render_artifact(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        rendered = render_artifact(store.find("store-sweep"))
        assert spec.fingerprint() in rendered
        assert "Tolerance sweep" in rendered
        assert "complete=True" in rendered

    def test_compare_artifacts(self, store):
        narrow = sweep_spec()
        wide = sweep_spec(grid=(0.05, 0.3, 0.6), name="store-sweep-wide")
        execute_spec(narrow, store=store)
        execute_spec(wide, store=store)
        report = compare_artifacts(
            store.find("store-sweep"), store.find("store-sweep-wide")
        )
        assert "baseline_accuracy" in report
        assert "only in" in report  # the wide run has an extra point

    def test_flatten_result(self):
        flat = flatten_result(
            {"a": 1, "b": {"c": 2.5}, "d": [1, {"e": 3}], "skip": "text", "flag": True}
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "d[0]": 1.0, "d[1].e": 3.0}

    def test_lookup_points_and_baseline(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        plan = build_plan(spec)
        found = store.lookup_points(point.fingerprint for point in plan.points)
        assert set(found) == {point.fingerprint for point in plan.points}
        accuracy = store.lookup_baseline(plan.baseline_fingerprint)
        assert accuracy is not None
        assert store.lookup_baseline("0" * 16) is None


class TestStoreHealthFlags:
    def test_list_runs_flags_legacy_checksum_artifacts(self, store):
        import json as json_module

        spec = sweep_spec()
        execute_spec(spec, store=store)
        rows = store.list_runs()
        assert rows[0]["legacy_checksum"] is False
        path = store.path(spec.fingerprint())
        artifact = json_module.loads(path.read_text())
        del artifact["payload_sha256"]
        path.write_text(json_module.dumps(artifact))
        rows = store.list_runs()
        assert rows[0]["legacy_checksum"] is True
        assert rows[0]["complete"] is True  # legacy, not partial

    def test_quarantined_listing(self, store):
        spec = sweep_spec()
        execute_spec(spec, store=store)
        assert store.quarantined() == []
        path = store.path(spec.fingerprint())
        path.write_text("{ truncated")
        assert store.load(spec.fingerprint()) is None  # triggers quarantine
        assert store.quarantined() == [f"{spec.fingerprint()}.json.corrupt"]
        # Quarantined files stay out of the artifact namespace.
        assert store.fingerprints() == []


class TestJournalLocking:
    def test_concurrent_appends_never_interleave(self, store):
        """Threaded appenders (the fcntl-locked path) produce whole lines:
        every record survives the contention and none is corrupt."""
        import threading

        writers = 4
        per_writer = 25

        def append_many(writer):
            for index in range(per_writer):
                store.append_journal(
                    "spec-fp",
                    f"point-{writer}-{index}",
                    {"value": writer * 1000 + index, "blob": "x" * 256},
                )

        threads = [
            threading.Thread(target=append_many, args=(writer,))
            for writer in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        recovered = store.load_journal("spec-fp")
        assert len(recovered) == writers * per_writer
        for writer in range(writers):
            for index in range(per_writer):
                assert recovered[f"point-{writer}-{index}"]["value"] == (
                    writer * 1000 + index
                )
        # Every line parses and passes its checksum — none interleaved.
        lines = store.journal_path("spec-fp").read_text().splitlines()
        assert len(lines) == writers * per_writer

    def test_concurrent_processes_serialize_on_the_lock(self, store, tmp_path):
        """Two *processes* appending to one journal — the scenario the
        exclusive fcntl lock exists for — lose nothing."""
        import subprocess
        import sys as sys_module

        script = tmp_path / "appender.py"
        script.write_text(
            "import sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from repro.experiments.store import RunStore\n"
            "store = RunStore(sys.argv[1])\n"
            "writer = sys.argv[2]\n"
            "for index in range(20):\n"
            "    store.append_journal('fp', f'p-{writer}-{index}', {'i': index})\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        procs = [
            subprocess.Popen(
                [sys_module.executable, str(script), str(store.root), str(writer), src]
            )
            for writer in range(2)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        recovered = store.load_journal("fp")
        assert len(recovered) == 40
