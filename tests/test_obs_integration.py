"""Integration tests: observability threaded through serving/graph/scheduler.

Acceptance contract (PR 10): instrumenting a run never changes its
numbers — obs-on and obs-off runs of one spec produce identical
fingerprints and results; two identical seeded serve-bench drills emit
identical trace records modulo timing fields; the live ``metrics``
snapshot's queue-wait percentiles agree *exactly* with a histogram
recomputed offline from ``traces.jsonl``; and scheduler node traces
carry job attribution plus queue-depth samples.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, RunStore, execute_spec
from repro.hardware import (
    CrossbarLibrary,
    HardwareConfig,
    NetworkMapper,
    TechnologyParameters,
)
from repro.models import build_mlp
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    percentile,
    read_trace_file,
    strip_timing_fields,
    summarize_traces,
)
from repro.serving import ServingConfig, ServingRuntime
from repro.serving.bench import run_chaos_drill

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

NOISY = HardwareConfig(bits=6, program_noise=0.02, fault_rate=0.001, adc_bits=8, seed=0)


def sweep_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        scale_overrides=FAST,
        grid=(0.05, 0.3),
        name="obs-sweep",
    )
    return spec.with_updates(**overrides) if overrides else spec


def live_obs(tmp_path, tag):
    return Observability(
        metrics=MetricsRegistry(),
        tracer=Tracer(tmp_path / f"traces-{tag}.jsonl"),
    )


def tiny_runtime(obs):
    technology = TechnologyParameters(max_crossbar_rows=32, max_crossbar_cols=32)
    mapper = NetworkMapper(
        technology=technology, library=CrossbarLibrary(technology=technology)
    )
    config = ServingConfig(
        max_queue=64, max_batch=4, batch_window_s=0.002, workers=1,
        default_deadline_s=5.0,
    )
    runtime = ServingRuntime(config, mapper=mapper, obs=obs)
    runtime.register("mlp", build_mlp(16, [24], 4, rng=0, name="serve0"),
                     corner=NOISY, warm=True)
    return runtime


# ------------------------------------------------------------------ serving
class TestServingObservability:
    def test_stats_snapshot_is_deep_copied(self):
        runtime = tiny_runtime(None)
        try:
            before = runtime.stats()
            before["completed"] = 10 ** 9  # mutating the snapshot ...
            before["submitted"] = -1
            after = runtime.stats()
            assert after["completed"] == 0  # ... never touches the runtime
            assert after["submitted"] == 0
        finally:
            runtime.close(drain=True)

    def test_metrics_p99_agrees_exactly_with_offline_traces(self, tmp_path):
        obs = live_obs(tmp_path, "p99")
        runtime = tiny_runtime(obs)
        try:
            samples = np.random.default_rng(0).standard_normal((40, 16))
            handles = [runtime.submit("mlp", samples[i]) for i in range(40)]
            for handle in handles:
                handle.result(timeout=10.0)
        finally:
            runtime.close(drain=True)
            obs.tracer.close()
        snapshot = obs.metrics.snapshot()
        records = read_trace_file(obs.tracer.path)
        waits = [
            float(r["queue_wait_s"])
            for r in records
            if r.get("kind") == "request" and r.get("queue_wait_s") is not None
        ]
        hist = snapshot["histograms"]["serving.queue_wait_s"]
        assert hist["count"] == len(waits) == 40
        for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
            assert hist[key] == percentile(waits, q)
        # The offline summarizer agrees too (same percentile helper).
        summary = summarize_traces(records)
        assert summary["requests"]["queue_wait_s"]["p99"] == hist["p99"]

    def test_accounting_invariant_holds_in_metrics(self, tmp_path):
        obs = live_obs(tmp_path, "acct")
        runtime = tiny_runtime(obs)
        try:
            samples = np.random.default_rng(1).standard_normal((10, 16))
            for i in range(10):
                runtime.submit("mlp", samples[i]).result(timeout=10.0)
        finally:
            runtime.close(drain=True)
            obs.tracer.close()
        counters = obs.metrics.snapshot()["counters"]
        rejected = sum(
            v for k, v in counters.items() if k.startswith("serving.rejected.")
        )
        assert counters["serving.submitted"] == counters["serving.completed"] + rejected
        # The metrics counters mirror the runtime's own accounting dict.
        assert counters["serving.completed"] == runtime.stats()["completed"]

    def test_chaos_drill_traces_are_deterministic_modulo_timing(self, tmp_path):
        def run(tag):
            obs = live_obs(tmp_path, tag)
            summary = run_chaos_drill(emit=lambda line: None, obs=obs)
            obs.tracer.close()
            assert summary["ok"], summary
            return read_trace_file(obs.tracer.path)

        first, second = run("a"), run("b")
        assert len(first) == len(second) > 0
        stripped_a = [strip_timing_fields(r) for r in first]
        stripped_b = [strip_timing_fields(r) for r in second]
        assert stripped_a == stripped_b
        # ... and the stripped view still shows the whole drill arc:
        requests = [r for r in stripped_a if r["kind"] == "request"]
        assert any(r.get("degraded") for r in requests)
        states = {r.get("breaker_state") for r in requests}
        assert {"closed", "open", "half-open"} <= states

    def test_timing_fields_present_before_strip(self, tmp_path):
        obs = live_obs(tmp_path, "fields")
        runtime = tiny_runtime(obs)
        try:
            sample = np.random.default_rng(2).standard_normal(16)
            runtime.submit("mlp", sample).result(timeout=10.0)
        finally:
            runtime.close(drain=True)
            obs.tracer.close()
        [record] = [
            r for r in read_trace_file(obs.tracer.path) if r.get("kind") == "request"
        ]
        for field in ("queue_wait_s", "latency_s", "service_s", "deadline_slack_s"):
            assert field in record
        assert record["outcome"] == "completed"
        assert record["admission"] == "admitted"


# -------------------------------------------------------------------- graph
class TestGraphObservability:
    def test_obs_never_changes_results_and_adds_artifact_section(self, tmp_path):
        spec = sweep_spec()
        obs = live_obs(tmp_path, "graph")
        store_on = RunStore(tmp_path / "store-on")
        store_off = RunStore(tmp_path / "store-off")
        run_on = execute_spec(spec, store=store_on, obs=obs)
        obs.tracer.close()
        run_off = execute_spec(spec, store=store_off)
        assert run_on.fingerprint == run_off.fingerprint
        on = run_on.result.to_payload()
        off = run_off.result.to_payload()
        # Identical numbers: instrumentation must be observation-only.
        assert on == off
        artifact_on = store_on.load(run_on.fingerprint)
        artifact_off = store_off.load(run_off.fingerprint)
        section = artifact_on["observability"]
        assert set(section) == {"stage_timings", "nodes"}
        # Every node ran through run_node, so every node before assembly
        # (which writes the section) is timed.
        assert set(section["nodes"]) == {"baseline", "point:0", "point:1"}
        assert section["stage_timings"].keys() >= {"baseline_s", "total_s"}
        assert "observability" not in artifact_off

    def test_node_traces_cover_every_node(self, tmp_path):
        obs = live_obs(tmp_path, "nodes")
        store = RunStore(tmp_path / "store")
        # execute_spec drives every node through run_node (the scheduler's
        # path too), so each of the four nodes emits its own trace record.
        run = execute_spec(sweep_spec(), store=store, obs=obs)
        obs.tracer.close()
        nodes = [
            r for r in read_trace_file(obs.tracer.path) if r.get("kind") == "node"
        ]
        assert {r["node"] for r in nodes} == {
            "baseline", "point:0", "point:1", "assemble",
        }
        assert all(r["run"] == run.fingerprint for r in nodes)
        assert all(r["status"] == "done" for r in nodes)
        assert all(r["attempts"] == 1 and r["retries"] == 0 for r in nodes)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["graph.nodes.done"] == 4

    def test_points_trace_reports_pool_rebuilds(self, tmp_path):
        from repro.utils import faultinject

        obs = live_obs(tmp_path, "rebuilds")
        # A worker killed on its first attempt breaks the pool once; the
        # rebuilt pool finishes the point.
        plan = [{"site": "point", "kind": "kill", "index": 0, "attempts": [1]}]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(workers=2), obs=obs)
        obs.tracer.close()
        assert not run.failures
        records = {
            r["node"]: r
            for r in read_trace_file(obs.tracer.path)
            if r.get("kind") == "node"
        }
        assert set(records) == {"baseline", "points", "assemble"}
        assert records["points"]["pool_rebuilds"] >= 1
        assert records["baseline"]["pool_rebuilds"] == 0
        assert records["assemble"]["pool_rebuilds"] == 0


# ---------------------------------------------------------------- scheduler
class TestSchedulerObservability:
    def test_job_traces_carry_attribution_and_queue_depth(self, tmp_path):
        import threading

        from repro.scheduler import JobQueue, JobScheduler

        obs = live_obs(tmp_path, "sched")
        queue = JobQueue(tmp_path / "queue")
        store = RunStore(tmp_path / "runs")
        first = queue.submit(sweep_spec())
        second = queue.submit(sweep_spec(seed=7))
        scheduler = JobScheduler(queue, store, workers=1, poll_s=0.05, obs=obs)
        scheduler.run(threading.Event(), drain=True)
        obs.tracer.close()
        assert queue.state(first.job_id)["state"] == "done"
        assert queue.state(second.job_id)["state"] == "done"
        nodes = [
            r for r in read_trace_file(obs.tracer.path) if r.get("kind") == "node"
        ]
        jobs = {r.get("job") for r in nodes}
        assert jobs == {first.job_id, second.job_id}
        # With one worker, the second job waits queued while the first
        # runs, so its dispatches see a nonzero queue depth.
        depths = [r["queue_depth"] for r in nodes if r.get("job") == first.job_id]
        assert depths and max(depths) >= 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["scheduler.jobs.done"] == 2
