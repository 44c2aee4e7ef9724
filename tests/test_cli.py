"""Tests for the ``python -m repro`` command line (run/list/show/compare/bench)."""

import importlib
import json
import os
import sys
import types

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.cli import _load_benchmark_runner, main
from repro.utils import faultinject

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


@pytest.fixture
def spec_file(tmp_path):
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        scale_overrides=FAST,
        grid=(0.05, 0.3),
        name="cli-sweep",
    )
    path = tmp_path / "cli_sweep.json"
    path.write_text(spec.to_json())
    return spec, path


class TestList:
    def test_lists_presets_and_store(self, tmp_path, capsys):
        assert main(["list", "--store", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        for preset in ("table1", "table3", "figure3", "figure5", "figure6", "figure7", "figure8", "headline"):
            assert preset in out
        assert "(empty)" in out


    def test_list_json_is_machine_readable(self, tmp_path, spec_file, capsys):
        spec, path = spec_file
        store = str(tmp_path / "runs")
        assert main(["run", str(path), "--store", store, "--quiet"]) == 0
        capsys.readouterr()

        assert main(["list", "--store", store, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in listing["presets"]} >= {"table1", "figure6", "headline"}
        runs = listing["store"]["runs"]
        assert len(runs) == 1
        row = runs[0]
        assert row["fingerprint"] == spec.fingerprint()
        assert row["complete"] is True
        assert row["failures"] == 0
        assert row["legacy_checksum"] is False
        assert listing["store"]["quarantined"] == []

    def test_list_json_empty_store(self, tmp_path, capsys):
        assert main(["list", "--store", str(tmp_path / "none"), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["store"]["runs"] == []


class TestRun:
    def test_run_spec_file_then_resume_show_compare(self, tmp_path, spec_file, capsys):
        spec, path = spec_file
        store = str(tmp_path / "runs")

        assert main(["run", str(path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Tolerance sweep" in out
        assert spec.fingerprint() in out
        assert "2 computed, 0 reused" in out

        # Second invocation resumes the complete artifact: zero new points.
        assert main(["run", str(path), "--store", store]) == 0
        assert "0 computed, 2 reused" in capsys.readouterr().out

        assert main(["show", "cli-sweep", "--store", store]) == 0
        shown = capsys.readouterr().out
        assert spec.fingerprint() in shown
        assert "Tolerance sweep" in shown

        assert main(["compare", "cli-sweep", spec.fingerprint()[:8], "--store", store]) == 0
        assert "baseline_accuracy" in capsys.readouterr().out

    def test_run_preset_with_overrides_json_output(self, tmp_path, capsys):
        store = tmp_path / "runs"
        rc = main(
            [
                "run",
                "baseline",
                "--workload",
                "mlp",
                "--scale",
                "tiny",
                "--workers",
                "1",
                "--store",
                str(store),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["workload"] == "mlp"
        assert payload["result"]["accuracy"] is not None
        assert (store / f"{payload['fingerprint']}.json").exists()

    def test_run_grid_override(self, tmp_path, spec_file, capsys):
        _, path = spec_file
        store = str(tmp_path / "runs")
        assert main(["run", str(path), "--grid", "0.05", "--store", store]) == 0
        assert "1 computed" in capsys.readouterr().out

    def test_no_store_skips_artifact(self, tmp_path, spec_file, capsys):
        _, path = spec_file
        assert main(["run", str(path), "--no-store", "--quiet"]) == 0
        assert "artifact:" not in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "table9"]) == 2
        err = capsys.readouterr().err
        assert "table9" in err
        assert "table1" in err  # the registered presets are listed

    def test_show_unknown_errors(self, tmp_path, capsys):
        assert main(["show", "missing", "--store", str(tmp_path / "runs")]) == 2
        assert "missing" in capsys.readouterr().err

    def test_boolean_flags_can_disable_preset_defaults(self):
        """Presets defaulting include_small_matrices=True must be overridable."""
        from repro.experiments.cli import _resolve_spec, build_parser

        parser = build_parser()
        on = _resolve_spec(parser.parse_args(["run", "figure8"]))
        assert on.include_small_matrices is True
        off = _resolve_spec(
            parser.parse_args(["run", "figure8", "--no-include-small-matrices"])
        )
        assert off.include_small_matrices is False


class TestExitCodes:
    """0 clean · 1 aborted · 2 usage · 3 partial — the documented contract."""

    @pytest.fixture(autouse=True)
    def _no_leaked_faults(self, monkeypatch):
        # ``--faults`` exports $REPRO_FAULTS via os.environ (so worker
        # processes inherit it); monkeypatch only undoes its *own* edits, so
        # pop explicitly on teardown or the plan leaks into later test files.
        monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
        faultinject.uninstall()
        yield
        os.environ.pop(faultinject.ENV_VAR, None)
        faultinject.uninstall()

    def test_partial_run_exits_3_then_resumes_to_0(
        self, tmp_path, spec_file, capsys
    ):
        _, path = spec_file
        store = str(tmp_path / "runs")
        faults = json.dumps([{"site": "point", "kind": "raise", "index": 1}])
        assert main(["run", str(path), "--store", store, "--faults", faults]) == 3
        out = capsys.readouterr().out
        assert "1 computed" in out and "1 FAILED" in out
        # Re-running without faults heals the failed point only.  (--faults
        # exports $REPRO_FAULTS for worker processes; a real CLI invocation
        # is its own process, here we must clear it by hand.)
        os.environ.pop(faultinject.ENV_VAR, None)
        assert main(["run", str(path), "--store", store]) == 0
        assert "1 computed, 1 reused" in capsys.readouterr().out

    def test_partial_json_output_carries_failures(self, tmp_path, spec_file, capsys):
        _, path = spec_file
        faults = json.dumps([{"site": "point", "kind": "raise", "index": 0}])
        rc = main(
            ["run", str(path), "--store", str(tmp_path / "runs"),
             "--faults", faults, "--json"]
        )
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed_points"][0]["error_type"] == "InjectedFault"

    def test_strict_failure_exits_1(self, tmp_path, spec_file, capsys):
        _, path = spec_file
        faults = json.dumps([{"site": "point", "kind": "raise", "index": 0}])
        rc = main(
            ["run", str(path), "--store", str(tmp_path / "runs"),
             "--faults", faults, "--strict"]
        )
        assert rc == 1
        assert "strict" in capsys.readouterr().err

    def test_interrupted_run_exits_1_and_persists_partial(
        self, tmp_path, spec_file, capsys
    ):
        spec, path = spec_file
        store = str(tmp_path / "runs")
        faults = json.dumps([{"site": "point", "kind": "interrupt", "index": 1}])
        assert main(["run", str(path), "--store", store, "--faults", faults]) == 1
        assert "interrupted" in capsys.readouterr().err
        # The drained partial artifact is resumable.
        os.environ.pop(faultinject.ENV_VAR, None)
        assert main(["run", str(path), "--store", store]) == 0
        assert "1 computed, 1 reused" in capsys.readouterr().out

    def test_bad_faults_json_is_usage_error(self, spec_file, capsys):
        _, path = spec_file
        assert main(["run", str(path), "--no-store", "--faults", "{nope"]) == 2
        assert "fault plan is not valid JSON" in capsys.readouterr().err

    def test_retry_flags_reach_the_engine(self, spec_file):
        from repro.experiments.cli import _resolve_spec, build_parser

        _, path = spec_file
        parser = build_parser()
        args = parser.parse_args(
            ["run", str(path), "--max-attempts", "3",
             "--retry-backoff", "0.5", "--point-timeout", "90"]
        )
        spec = _resolve_spec(args)
        assert spec.engine.retry.max_attempts == 3
        assert spec.engine.retry.backoff_s == 0.5
        assert spec.engine.retry.timeout_s == 90.0
        # Execution policy only: the fingerprint is unchanged.
        assert spec.fingerprint() == _resolve_spec(
            parser.parse_args(["run", str(path)])
        ).fingerprint()


class TestBench:
    def test_bench_list_matches_registry(self, capsys):
        """CLI suite names and the benchmark registry share one source."""
        assert main(["bench", "--list"]) == 0
        listed = capsys.readouterr().out.split()
        runner = _load_benchmark_runner()
        assert tuple(listed) == runner.suite_names()
        assert set(listed) == {"kernels", "sweeps", "lockstep", "hardware", "obs"}


OBS_RECORD = {"preset": "figure8", "scale": "tiny", "pairs": 10, "null_obs_s": 1.0}
HARDWARE_RECORD = {
    "networks": 4,
    "samples": 96,
    "crossbars_per_network": 12,
    "program_s": 0.5,
    "reference_s": 4.0,
}


class TestBenchGates:
    """The ``--check`` bars of the obs and hardware suites, on stubbed timings."""

    @pytest.fixture
    def runner(self):
        return _load_benchmark_runner()

    def stub(self, monkeypatch, module, collector, record):
        fake = types.ModuleType(module)
        setattr(fake, collector, lambda: dict(record))
        monkeypatch.setitem(sys.modules, module, fake)

    @pytest.mark.parametrize("ratio, status", [(0.85, 1), (0.9, 0), (1.02, 0)])
    def test_obs_gate_holds_the_ratio_to_0_9(
        self, runner, monkeypatch, tmp_path, capsys, ratio, status
    ):
        # The gate reads the median pair ratio, not the ratio of the medians.
        record = dict(
            OBS_RECORD, obs_s=1.0, overhead_ratio=1.0, median_pair_ratio=ratio
        )
        self.stub(monkeypatch, "bench_obs", "collect_obs_stats", record)
        output = tmp_path / "BENCH_obs.json"
        assert runner.run_obs(output, check=True) == status
        assert runner.run_obs(output, check=False) == 0
        trajectory = json.loads(output.read_text())
        assert [entry["median_pair_ratio"] for entry in trajectory] == [ratio, ratio]
        assert ("FAIL" in capsys.readouterr().err) == bool(status)

    @pytest.mark.parametrize(
        "level, overhead, status",
        [
            # A steady 1%-per-run slowdown under a real 15% overhead.
            (lambda run: 1.0 + 0.01 * run, 1.15, 1),
            # No overhead; the host slows by a third from the tenth run on.
            (lambda run: 1.0 if run < 9 else 1.35, 1.0, 0),
        ],
        ids=["overhead", "drift"],
    )
    def test_obs_gate_separates_overhead_from_host_drift(
        self, runner, monkeypatch, tmp_path, capsys, level, overhead, status
    ):
        bench_obs = importlib.import_module("bench_obs")
        runs = []

        def timed(instrumented, index):
            runs.append(instrumented)
            return level(len(runs) - 1) * (overhead if instrumented else 1.0)

        null_times, obs_times = bench_obs.alternate_pairs(timed)
        assert runs == [False, True, True, False] * (bench_obs.PAIRS // 2)
        record = dict(OBS_RECORD, **bench_obs.pair_statistics(null_times, obs_times))
        if not status:
            # The drift alone pushes the ratio of the medians under the bar.
            assert record["overhead_ratio"] < 0.9
        self.stub(monkeypatch, "bench_obs", "collect_obs_stats", record)
        assert runner.run_obs(tmp_path / "BENCH_obs.json", check=True) == status
        assert ("FAIL" in capsys.readouterr().err) == bool(status)

    @pytest.mark.parametrize("speedup, status", [(3.9, 1), (4.0, 0), (9.3, 0)])
    def test_hardware_gate_holds_the_serial_speedup_to_4(
        self, runner, monkeypatch, tmp_path, capsys, speedup, status
    ):
        record = dict(
            HARDWARE_RECORD,
            serial_vectorized_s=HARDWARE_RECORD["reference_s"] / speedup,
            serial_speedup=speedup,
        )
        self.stub(monkeypatch, "bench_hardware", "collect_hardware_stats", record)
        output = tmp_path / "BENCH_hardware.json"
        assert runner.run_hardware(output, check=True) == status
        assert runner.run_hardware(output, check=False) == 0
        trajectory = json.loads(output.read_text())
        assert [entry["serial_speedup"] for entry in trajectory] == [speedup, speedup]
        assert ("FAIL" in capsys.readouterr().err) == bool(status)

    def test_main_returns_the_suite_status(self, runner, monkeypatch, tmp_path, capsys):
        record = dict(OBS_RECORD, obs_s=2.0, overhead_ratio=0.5, median_pair_ratio=0.5)
        self.stub(monkeypatch, "bench_obs", "collect_obs_stats", record)
        output = tmp_path / "obs.json"
        argv = ["--suite", "obs", "--output", str(output)]
        assert runner.main(argv) == 0
        assert runner.main(argv + ["--check"]) == 1
        assert len(json.loads(output.read_text())) == 2
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--output", str(output)])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_append_starts_over_after_a_corrupt_trajectory(self, runner, tmp_path, capsys):
        output = tmp_path / "BENCH_obs.json"
        output.write_text("{not json")
        runner._append(output, {"run": 1})
        assert "invalid JSON" in capsys.readouterr().out
        assert json.loads(output.read_text()) == [{"run": 1}]
        # A single-record file (not a list) is kept as the first entry.
        output.write_text(json.dumps({"run": 0}))
        runner._append(output, {"run": 1})
        assert json.loads(output.read_text()) == [{"run": 0}, {"run": 1}]


class TestLint:
    def test_lint_default_tree_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_lint_nonzero_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert main(["lint", str(bad), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "unseeded-random" in out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert main(["lint", str(bad), "--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "unseeded-random"

    def test_lint_rule_subset(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert (
            main(["lint", str(bad), "--rules", "dtype-literal,mutable-default"]) == 0
        )
        capsys.readouterr()

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("unseeded-random", "dtype-literal", "fingerprint-coverage"):
            assert rule_id in out

    def test_lint_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rules", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "do not exist" in capsys.readouterr().err


class TestListHealthFlags:
    def test_flags_legacy_and_quarantined_artifacts(self, tmp_path, capsys):
        from repro.experiments.store import CHECKSUM_FIELD, RunStore

        store_root = tmp_path / "runs"
        store = RunStore(store_root)
        store.save(
            {
                "fingerprint": "aaaa1111",
                "name": "legacy",
                "kind": "sweep",
                "workload": "mlp",
                "scale": "tiny",
                "points": {},
                "complete": True,
                "updated": "2026-01-01T00:00:00",
            }
        )
        # Strip the checksum to fabricate a pre-checksum-era artifact, and
        # drop a torn write beside it to exercise quarantine rendering.
        path = store.path("aaaa1111")
        artifact = json.loads(path.read_text())
        del artifact[CHECKSUM_FIELD]
        path.write_text(json.dumps(artifact))
        (store_root / "bbbb2222.json").write_text('{"torn')

        assert main(["list", "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "no-checksum" in out
        assert "quarantined (corrupt, kept for inspection): 1 file(s)" in out
        assert "bbbb2222.json.corrupt" in out
