"""Integration tests: observability threaded through the graph and scheduler.

Acceptance contract: instrumenting a run never changes its numbers —
obs-on and obs-off runs of one spec produce identical fingerprints and
results; two identical seeded sweeps under one fault plan emit identical
trace records modulo timing fields; the live ``graph.node_s`` percentiles
agree *exactly* with the node records' ``elapsed_s`` read back from
``traces.jsonl``; node traces count the attempts of recovered and of
permanently failed points; and scheduler node traces carry job attribution
plus queue-depth samples, with the same exact percentile agreement.
"""

import pytest

from repro.experiments import ExperimentSpec, RunStore, execute_spec
from repro.obs import (
    TIMING_FIELDS,
    MetricsRegistry,
    Observability,
    Tracer,
    percentile,
    read_trace_file,
    strip_timing_fields,
)
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

#: Point 0 fails on every attempt; point 1 fails once and recovers.
FLAKY_PLAN = [
    {"site": "point", "kind": "raise", "index": 0},
    {"site": "point", "kind": "raise", "index": 1, "attempts": [1]},
]


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


def node_records(obs):
    return [r for r in read_trace_file(obs.tracer.path) if r.get("kind") == "node"]


def assert_node_percentiles_match(obs, records):
    """Live ``graph.node_s`` equals ``percentile`` over the traced ``elapsed_s``."""
    elapsed = [record["elapsed_s"] for record in records]
    hist = obs.metrics.snapshot()["histograms"]["graph.node_s"]
    assert hist["count"] == len(elapsed)
    for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
        assert hist[key] == percentile(elapsed, q)


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
        nodes = node_records(obs)
        assert {r["node"] for r in nodes} == {
            "baseline", "point:0", "point:1", "assemble",
        }
        assert all(r["run"] == run.fingerprint for r in nodes)
        assert all(r["status"] == "done" for r in nodes)
        assert all(r["attempts"] == 1 and r["retries"] == 0 for r in nodes)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["graph.nodes.done"] == 4

    def test_points_trace_reports_pool_rebuilds(self, tmp_path):
        obs = live_obs(tmp_path, "rebuilds")
        # A worker killed on its first attempt breaks the pool once; the
        # rebuilt pool finishes the point.
        plan = [{"site": "point", "kind": "kill", "index": 0, "attempts": [1]}]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(workers=2), obs=obs)
        obs.tracer.close()
        assert not run.failures
        records = {r["node"]: r for r in node_records(obs)}
        assert set(records) == {"baseline", "points", "assemble"}
        assert records["points"]["pool_rebuilds"] >= 1
        assert records["baseline"]["pool_rebuilds"] == 0
        assert records["assemble"]["pool_rebuilds"] == 0
        # Point 0 ran twice, so its node counts two attempts, as the fault
        # plan's attempt coordinate does: a pool loss is an attempt, though
        # it charges no retry budget.
        assert records["points"]["status"] == "done"
        assert (records["points"]["attempts"], records["points"]["retries"]) == (2, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recovered_retry_counts_its_attempts(self, tmp_path, workers):
        # Point 1 fails once and succeeds on its retry: its node record must
        # say so, on the serial per-point path and the 2-worker pool alike.
        obs = live_obs(tmp_path, f"retry-{workers}")
        plan = [{"site": "point", "kind": "raise", "index": 1, "attempts": [1]}]
        spec = sweep_spec(workers=workers, retry={"max_attempts": 2})
        with faultinject.injected(plan):
            run = execute_spec(spec, obs=obs)
        obs.tracer.close()
        assert not run.failures
        records = {r["node"]: r for r in node_records(obs)}
        recovered = records["point:1" if workers == 1 else "points"]
        assert recovered["status"] == "done"
        assert (recovered["attempts"], recovered["retries"]) == (2, 1)

    def test_pool_failure_traces_the_failed_points_attempts(self, tmp_path):
        obs = live_obs(tmp_path, "pool-failure")
        plan = [{"site": "point", "kind": "raise", "index": 0}]  # every attempt
        spec = sweep_spec(workers=2, retry={"max_attempts": 2})
        with faultinject.injected(plan):
            run = execute_spec(spec, obs=obs)
        obs.tracer.close()
        assert [failure.attempts for failure in run.failures] == [2]
        records = {r["node"]: r for r in node_records(obs)}
        assert (records["points"]["attempts"], records["points"]["retries"]) == (2, 1)

    def test_node_records_carry_timing_until_stripped(self, tmp_path):
        obs = live_obs(tmp_path, "timing")
        execute_spec(sweep_spec(), obs=obs)
        obs.tracer.close()
        records = node_records(obs)
        assert len(records) == 4
        for record in records:
            assert record["elapsed_s"] >= 0 and record["ready_wait_s"] >= 0
            stripped = strip_timing_fields(record)
            assert not set(stripped) & (TIMING_FIELDS | {"sha256"})
            assert {k: v for k, v in record.items() if k in stripped} == stripped

    def test_fault_drill_traces_are_deterministic_modulo_timing(self, tmp_path):
        def run(tag):
            obs = live_obs(tmp_path, tag)
            with faultinject.injected(FLAKY_PLAN):
                execute_spec(sweep_spec(retry={"max_attempts": 2}), obs=obs)
            obs.tracer.close()
            return [strip_timing_fields(r) for r in read_trace_file(obs.tracer.path)]

        first, second = run("a"), run("b")
        assert first == second
        nodes = {r["node"]: r for r in first if r["kind"] == "node"}
        assert (nodes["point:0"]["status"], nodes["point:0"]["retries"]) == ("failed", 1)
        assert (nodes["point:1"]["status"], nodes["point:1"]["retries"]) == ("done", 1)
        for node in ("baseline", "assemble"):
            assert (nodes[node]["status"], nodes[node]["retries"]) == ("done", 0)

    def test_node_percentiles_agree_exactly_with_traces(self, tmp_path):
        obs = live_obs(tmp_path, "percentiles")
        execute_spec(sweep_spec(), obs=obs)
        with faultinject.injected(FLAKY_PLAN):
            execute_spec(sweep_spec(retry={"max_attempts": 2}), obs=obs)
        obs.tracer.close()
        records = node_records(obs)
        assert len(records) == 8
        assert_node_percentiles_match(obs, records)
        snapshot = obs.metrics.snapshot()
        statuses = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("graph.nodes.")
        }
        assert sum(statuses.values()) == len(records)
        assert statuses["graph.nodes.failed"] == 1


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
        nodes = node_records(obs)
        jobs = {r.get("job") for r in nodes}
        assert jobs == {first.job_id, second.job_id}
        # With one worker, the second job waits queued while the first
        # runs, so its dispatches see a nonzero queue depth.
        depths = [r["queue_depth"] for r in nodes if r.get("job") == first.job_id]
        assert depths and max(depths) >= 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["scheduler.jobs.done"] == 2

    def test_scheduled_node_percentiles_agree_exactly_with_traces(self, tmp_path):
        import threading

        from repro.scheduler import JobQueue, JobScheduler

        obs = live_obs(tmp_path, "sched-percentiles")
        queue = JobQueue(tmp_path / "queue")
        store = RunStore(tmp_path / "runs")
        # Two concurrent jobs under one plan: in each, point 0 fails for good
        # and point 1 recovers on its retry.
        for seed in (0, 7):
            queue.submit(sweep_spec(seed=seed, retry={"max_attempts": 2}))
        with faultinject.injected(FLAKY_PLAN):
            JobScheduler(queue, store, workers=2, poll_s=0.05, obs=obs).run(
                threading.Event(), drain=True
            )
        obs.tracer.close()
        records = node_records(obs)
        assert len(records) == 8
        assert_node_percentiles_match(obs, records)
        counters = obs.metrics.snapshot()["counters"]
        statuses = {}
        for record in records:
            statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        assert {
            name[len("graph.nodes."):]: value
            for name, value in counters.items()
            if name.startswith("graph.nodes.")
        } == statuses
        assert statuses == {"done": 6, "failed": 2}
