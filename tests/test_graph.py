"""Tests for the experiment DAG (``repro.experiments.graph``).

The graph's node loop is the only executor: ``execute_spec`` runs it to
completion, and the job scheduler drives the same ``start`` /
``next_ready`` / ``run_node`` protocol one node at a time.  Serial sweeps
run one node per point; fanned-out (``workers >= 2``) and lockstep sweeps
run one ``points`` node.  Whatever the node shape, and whether
``execute_spec`` or the scheduler runs the loop, the artifacts are
**bit-identical** (same fingerprints and payloads), and resume, failure
isolation and retries behave the same.
"""

import json
import os
import threading

import pytest

from repro.exceptions import ExperimentError, LayerError, PointFailureError
from repro.experiments import (
    TINY,
    ExperimentContext,
    ExperimentSpec,
    RunStore,
    SweepEngine,
    execute_spec,
    mlp_workload,
    spec_for_workload,
    train_baseline,
)
from repro.experiments import resilience, training
from repro.experiments.graph import GraphExecution, build_graph, run_graph
from repro.nn.trainer import LockstepTrainer
from repro.scheduler import JobQueue, JobScheduler
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


def sweep_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        scale_overrides=FAST,
        grid=(0.05, 0.3),
        name="graph-sweep",
    )
    return spec.with_updates(**overrides) if overrides else spec


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faultinject.uninstall()
    os.environ.pop(faultinject.ENV_VAR, None)
    yield
    faultinject.uninstall()
    os.environ.pop(faultinject.ENV_VAR, None)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def assert_artifacts_bit_identical(first, second):
    """Everything content-addressed must match; only timings/timestamps may differ."""
    for key in ("fingerprint", "name", "kind", "method", "result", "baseline", "complete"):
        assert canonical(first.get(key)) == canonical(second.get(key)), key
    points_a = {fp: entry["payload"] for fp, entry in first["points"].items()}
    points_b = {fp: entry["payload"] for fp, entry in second["points"].items()}
    assert canonical(points_a) == canonical(points_b)


def drive_by_hand(spec, store):
    """The scheduler's protocol without its threads: one ready node at a time."""
    execution = GraphExecution(spec, store=store, install_signals=False)
    execution.start()
    while not execution.finished():
        execution.run_node(execution.next_ready())
    return execution.run_result


class TestBuildGraph:
    def test_rank_clipping_shape(self):
        graph = build_graph(sweep_spec())
        ids = [node.id for node in graph.nodes]
        assert ids == ["baseline", "point:0", "point:1", "assemble"]
        assert graph.node("point:0").inputs == ("baseline",)
        assert graph.node("assemble").inputs == ("point:0", "point:1")

    def test_group_deletion_has_clip_node(self):
        graph = build_graph(sweep_spec(method="group_deletion"))
        ids = [node.id for node in graph.nodes]
        assert ids == ["baseline", "clip", "point:0", "point:1", "assemble"]
        assert graph.node("clip").inputs == ("baseline",)
        assert graph.node("point:0").inputs == ("baseline", "clip")

    def test_lockstep_lambda_sweep_runs_one_points_node(self):
        graph = build_graph(sweep_spec(method="group_deletion", mode="lockstep"))
        assert [node.id for node in graph.nodes] == [
            "baseline", "clip", "points", "assemble",
        ]
        assert graph.node("points").kind == "points"
        assert graph.node("points").inputs == ("baseline", "clip")
        assert graph.node("assemble").inputs == ("points",)
        assert "lambda=0.05" in graph.node("points").label

    def test_parallel_epsilon_sweep_runs_one_points_node(self):
        graph = build_graph(sweep_spec(workers=2))
        assert [node.id for node in graph.nodes] == ["baseline", "points", "assemble"]
        assert graph.node("points").inputs == ("baseline",)

    def test_lockstep_epsilon_sweep_keeps_point_nodes(self):
        # Lockstep stacks λ points only; an ε sweep stays serial.
        graph = build_graph(sweep_spec(mode="lockstep"))
        assert [node.id for node in graph.nodes] == [
            "baseline", "point:0", "point:1", "assemble",
        ]

    def test_single_and_headline_shapes(self):
        table1 = build_graph(
            ExperimentSpec(kind="table1", workload="mlp", scale="tiny", scale_overrides=FAST)
        )
        assert [n.id for n in table1.nodes] == ["baseline", "single:table1", "assemble"]
        headline = build_graph(ExperimentSpec(kind="headline"))
        assert [n.id for n in headline.nodes] == ["headline", "assemble"]

    def test_point_nodes_carry_plan_fingerprints(self):
        spec = sweep_spec()
        graph = build_graph(spec)
        plan_fps = [point.fingerprint for point in graph.plan.points]
        node_fps = [graph.node(f"point:{i}").fingerprint for i in range(len(plan_fps))]
        assert node_fps == plan_fps

    def test_topological_order_and_unknown_node(self):
        graph = build_graph(sweep_spec())
        order = graph.topological_order()
        assert order.index("baseline") < order.index("point:0") < order.index("assemble")
        with pytest.raises(ExperimentError):
            graph.node("nope")

    def test_describe_names_every_node(self):
        text = build_graph(sweep_spec(method="group_deletion")).describe()
        for fragment in ("baseline", "clip", "lambda=0.05", "assemble"):
            assert fragment in text


class TestNodeModeBitIdentity:
    @pytest.mark.parametrize("method", ["rank_clipping", "group_deletion"])
    def test_sweep_matches_execute_spec(self, tmp_path, method):
        spec = sweep_spec(method=method)
        run_store = RunStore(tmp_path / "run")
        hand_store = RunStore(tmp_path / "hand")
        run = execute_spec(spec, store=run_store)
        hand = drive_by_hand(spec, hand_store)
        assert run.fingerprint == hand.fingerprint
        assert canonical(run.payload) == canonical(hand.payload)
        assert_artifacts_bit_identical(
            run_store.load(spec.fingerprint()), hand_store.load(spec.fingerprint())
        )

    def test_single_kind_matches_execute_spec(self, tmp_path):
        spec = ExperimentSpec(
            kind="table1", workload="mlp", scale="tiny", scale_overrides=FAST
        )
        run_store = RunStore(tmp_path / "run")
        hand_store = RunStore(tmp_path / "hand")
        execute_spec(spec, store=run_store)
        drive_by_hand(spec, hand_store)
        assert_artifacts_bit_identical(
            run_store.load(spec.fingerprint()), hand_store.load(spec.fingerprint())
        )

    def test_lockstep_cache_stats_match(self):
        """A lockstep ``points`` node reports the serial point nodes' numbers."""
        serial = execute_spec(sweep_spec(method="group_deletion"))
        lockstep = execute_spec(sweep_spec(method="group_deletion", mode="lockstep"))
        assert canonical(serial.payload) == canonical(lockstep.payload)
        assert lockstep.payload["routing_cache_stats"]["hits"] > 0


class TestNodeModeExecution:
    def test_next_ready_walks_plan_order(self, tmp_path):
        spec = sweep_spec()
        execution = GraphExecution(
            spec, store=RunStore(tmp_path / "runs"), install_signals=False
        )
        execution.start()
        seen = []
        while not execution.finished():
            node_id = execution.next_ready()
            assert node_id is not None
            seen.append(node_id)
            execution.run_node(node_id)
        assert seen == ["baseline", "point:0", "point:1", "assemble"]
        assert execution.run_result is not None
        assert execution.run_result.computed_points == 2

    def test_complete_artifact_short_circuits(self, tmp_path):
        spec = sweep_spec()
        store = RunStore(tmp_path / "runs")
        execute_spec(spec, store=store)
        execution = GraphExecution(spec, store=store, install_signals=False)
        execution.start()
        assert execution.finished()
        assert execution.run_result.reused_points == len(execution.plan.points)
        assert set(execution.status.values()) == {"reused"}

    def test_node_mode_resumes_stored_points(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_graph(sweep_spec(grid=(0.05,)), store=store, install_signals=False)
        execution = GraphExecution(
            sweep_spec(grid=(0.05, 0.3)), store=store, install_signals=False
        )
        execution.start()
        assert execution.status["point:0"] == "reused"
        result = execution.run() if not execution.finished() else execution.run_result
        assert result.computed_points == 1
        assert result.reused_points == 1

    def test_run_node_rejects_unmet_dependencies(self, tmp_path):
        execution = GraphExecution(sweep_spec(), install_signals=False)
        execution.start()
        with pytest.raises(ExperimentError):
            execution.run_node("point:0")

    def test_events_stream_through_observer(self, tmp_path):
        events = []
        run_graph(
            sweep_spec(),
            store=RunStore(tmp_path / "runs"),
            install_signals=False,
            observer=lambda node, status, detail: events.append((node.id, status)),
        )
        assert ("baseline", "running") in events
        assert ("baseline", "done") in events
        assert ("point:1", "done") in events
        assert ("assemble", "done") in events

    def test_storeless_node_mode_matches_batch(self, tmp_path):
        """Without a store nothing is journaled, and nothing else changes."""
        spec = sweep_spec()
        storeless = execute_spec(spec)
        stored = execute_spec(spec, store=RunStore(tmp_path / "runs"))
        assert canonical(storeless.payload) == canonical(stored.payload)


class TestNodeModeResilience:
    def test_point_failure_is_isolated_and_retried(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        spec = sweep_spec(retry={"max_attempts": 2})
        plan = [{"site": "point", "kind": "raise", "index": 0, "attempts": [1]}]
        with faultinject.injected(plan):
            run = run_graph(spec, store=store, install_signals=False)
        # Attempt 1 fails, attempt 2 (the RetryPolicy retry) succeeds.
        assert run.computed_points == 2
        assert run.failures == []

    def test_exhausted_point_fails_alone_and_resumes(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        spec = sweep_spec()
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 0}]):
            run = run_graph(spec, store=store, install_signals=False)
        assert run.computed_points == 1
        assert len(run.failures) == 1
        assert run.failures[0].label == "tolerance=0.05"
        artifact = store.load(spec.fingerprint())
        assert artifact["complete"] is False
        assert len(artifact["failures"]) == 1
        # The journaled good point resumes; only the failed one recomputes.
        healed = run_graph(spec, store=store, install_signals=False)
        assert healed.computed_points == 1
        assert healed.reused_points == 1
        assert store.load(spec.fingerprint())["complete"] is True

    def test_every_point_failing_raises(self, tmp_path):
        with faultinject.injected([{"site": "point", "kind": "raise"}]):
            with pytest.raises(PointFailureError):
                run_graph(
                    sweep_spec(),
                    store=RunStore(tmp_path / "runs"),
                    install_signals=False,
                )

    def test_failed_node_status_is_recorded(self, tmp_path):
        events = []
        spec = sweep_spec()
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 1}]):
            execution = GraphExecution(
                spec,
                store=RunStore(tmp_path / "runs"),
                install_signals=False,
                observer=lambda node, status, detail: events.append((node.id, status)),
            )
            execution.run()
        assert execution.status["point:0"] == "done"
        assert execution.status["point:1"] == "failed"
        assert execution.status["assemble"] == "done"
        assert ("point:1", "failed") in events


class TestPointsNode:
    """Fanned-out and lockstep sweeps: one supervised ``points`` node."""

    def test_parallel_failure_is_isolated_and_resumes(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        spec = sweep_spec(workers=2)
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 0}]):
            execution = GraphExecution(spec, store=store, install_signals=False)
            run = execution.run()
        assert execution.status["points"] == "failed"
        assert execution.status["assemble"] == "done"
        assert [failure.label for failure in run.failures] == ["tolerance=0.05"]
        assert run.computed_points == 1
        healed = execute_spec(spec, store=store)
        assert (healed.computed_points, healed.reused_points) == (1, 1)
        assert store.load(spec.fingerprint())["complete"] is True

    def test_points_reused_from_a_serial_run(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        execute_spec(sweep_spec(method="group_deletion"), store=store)
        execution = GraphExecution(
            sweep_spec(method="group_deletion", mode="lockstep"),
            store=store,
            install_signals=False,
        )
        execution.start()
        assert execution.status["points"] == "reused"
        assert execution.status["baseline"] == execution.status["clip"] == "skipped"
        run = execution.run() if not execution.finished() else execution.run_result
        assert (run.computed_points, run.reused_points) == (0, 2)


class TestLockstepFallback:
    """A stack that is refused or fails re-runs its points serially from
    pristine copies: the payload is the points-mode one, byte for byte."""

    @pytest.fixture(scope="class")
    def points_payload(self):
        return canonical(execute_spec(sweep_spec(method="group_deletion")).payload)

    def run_lockstep(self, caplog):
        run = execute_spec(sweep_spec(method="group_deletion", mode="lockstep"))
        assert "re-running its points under serial supervision" in caplog.text
        return run

    def test_stack_refused_at_construction(self, monkeypatch, caplog, points_payload):
        def refuse(networks):
            raise LayerError("cannot stack these networks")

        monkeypatch.setattr(training, "NetworkStack", refuse)
        run = self.run_lockstep(caplog)
        assert not run.failures
        assert canonical(run.payload) == points_payload

    def test_stack_failing_mid_training(self, monkeypatch, caplog, points_payload):
        train_step = LockstepTrainer.train_step
        steps = []

        def failing_step(trainer):
            steps.append(trainer.iteration)
            if len(steps) == 7:
                raise RuntimeError("stack lost mid-training")
            return train_step(trainer)

        monkeypatch.setattr(LockstepTrainer, "train_step", failing_step)
        run = self.run_lockstep(caplog)
        assert len(steps) == 7  # the stack trained six steps, then failed
        assert not run.failures
        assert canonical(run.payload) == points_payload


def run_as_job(spec, root):
    """Submit ``spec`` to a one-worker scheduler and drain it."""
    queue = JobQueue(root / "queue")
    store = RunStore(root / "runs")
    job = queue.submit(spec)
    scheduler = JobScheduler(queue, store, workers=1, poll_s=0.05)
    scheduler.run(threading.Event(), drain=True)
    assert queue.state(job.job_id)["state"] == "done"
    nodes = [e["node"] for e in queue.events() if e["event"] == "node-done"]
    return store.load(spec.fingerprint()), nodes


class TestSchedulerParity:
    """``execute_spec`` and a scheduler job write bit-identical artifacts."""

    @pytest.mark.parametrize(
        "overrides, serial_nodes, cpus",
        [
            ({}, True, 1),
            ({"method": "group_deletion"}, True, 1),
            ({"method": "group_deletion", "mode": "lockstep"}, False, 1),
            ({"method": "group_deletion", "mode": "lockstep"}, False, 2),
            ({"workers": 2}, False, 1),
        ],
        ids=[
            "serial-eps",
            "serial-lambda",
            "lockstep-lambda",
            "lockstep-lambda-split",
            "workers2-eps",
        ],
    )
    def test_sweep_job_matches_execute_spec(
        self, tmp_path, monkeypatch, overrides, serial_nodes, cpus
    ):
        # The usable CPUs a lockstep sweep sees, whatever the host has: on
        # two, its two points split into a parent's and a worker's stack.
        monkeypatch.setattr(resilience, "usable_cpus", lambda: cpus)
        spec = sweep_spec(**overrides)
        store = RunStore(tmp_path / "direct")
        direct = execute_spec(spec, store=store)
        artifact, nodes = run_as_job(spec, tmp_path / "job")
        assert_artifacts_bit_identical(store.load(spec.fingerprint()), artifact)
        assert ("points" not in nodes) is serial_nodes
        # The engine policy never changes a point: same points as serial.
        serial = execute_spec(sweep_spec(method=spec.method))
        assert direct.payload["points"] == serial.payload["points"]

    def test_table1_job_matches_execute_spec(self, tmp_path):
        spec = ExperimentSpec(
            kind="table1", workload="mlp", scale="tiny", scale_overrides=FAST
        )
        store = RunStore(tmp_path / "direct")
        execute_spec(spec, store=store)
        artifact, nodes = run_as_job(spec, tmp_path / "job")
        assert_artifacts_bit_identical(store.load(spec.fingerprint()), artifact)
        assert nodes == ["baseline", "single:table1", "assemble"]


# ----------------------------------------------------- engine policy parity
@pytest.fixture(scope="module")
def fast_workload():
    return mlp_workload(TINY.with_overrides(**FAST))


@pytest.fixture(scope="module")
def fast_baseline(fast_workload):
    network, accuracy, setup = train_baseline(fast_workload)
    return network, accuracy, setup


class TestEngineModesUnderPlanner:
    """Serial / parallel / lockstep stay bit-identical on a shared baseline."""

    def test_lambda_sweep_policies_bit_identical(self, fast_workload, fast_baseline):
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(
            "sweep",
            fast_workload,
            method="group_deletion",
            grid=(0.01, 0.08),
            include_small_matrices=True,
        )
        context = ExperimentContext(
            workload=fast_workload, setup=setup, baseline_network=network
        )
        serial = execute_spec(spec, context=context)
        parallel = execute_spec(spec.with_updates(workers=2), context=context)
        lockstep = execute_spec(spec.with_updates(mode="lockstep"), context=context)
        assert serial.result.points == parallel.result.points
        assert serial.result.points == lockstep.result.points
        assert (
            serial.result.baseline_accuracy
            == parallel.result.baseline_accuracy
            == lockstep.result.baseline_accuracy
        )

    def test_epsilon_sweep_workers_bit_identical(self, fast_workload, fast_baseline):
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(
            "sweep",
            fast_workload,
            method="rank_clipping",
            grid=(0.05, 0.3),
            engine=SweepEngine(per_point_seed=True),
        )
        context = ExperimentContext(
            workload=fast_workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy,
        )
        serial = execute_spec(spec, context=context)
        parallel = execute_spec(spec.with_updates(workers=2), context=context)
        assert serial.result.points == parallel.result.points


#: ``case -> (kind, spec fields, pass the baseline accuracy in the context)``.
CONTEXT_CASES = {
    "table1": ("table1", {}, True),
    "table3": ("table3", {"strength": 0.05, "include_small_matrices": True}, True),
    "figure3": ("figure3", {}, True),
    "figure5": ("figure5", {"strength": 0.05, "include_small_matrices": True}, False),
    "eps-sweep": ("sweep", {"method": "rank_clipping", "grid": (0.05, 0.3)}, True),
    "lambda-sweep": (
        "sweep",
        {
            "method": "group_deletion",
            "grid": (0.01, 0.08),
            "include_small_matrices": True,
        },
        False,
    ),
}


class TestContextBaseline:
    """A baseline trained once and handed in through ``ExperimentContext``
    (how the benchmarks and examples share one baseline) gives exactly the
    result of the spec training its own."""

    @pytest.mark.parametrize("case", sorted(CONTEXT_CASES))
    def test_matches_self_trained_spec(self, fast_workload, fast_baseline, case):
        kind, fields, with_accuracy = CONTEXT_CASES[case]
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(kind, fast_workload, **fields)
        context = ExperimentContext(
            workload=fast_workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy if with_accuracy else None,
        )
        assert execute_spec(spec, context=context).payload == execute_spec(spec).payload
