"""Chaos tests for the fault-tolerance layer (``repro.experiments.resilience``).

Acceptance contract (PR 7): a sweep survives point crashes, worker deaths,
hangs and interrupts; everything it completes is persisted; resuming after
any of those recomputes **only** what was lost; and every recovered result is
bit-identical to a clean run — retries, pool rebuilds and journal replays
must be invisible in the numbers.
"""

import copy
import dataclasses
import multiprocessing as mp
import os
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    PointFailureError,
    RunInterrupted,
)
from repro.experiments import REGISTRY, ExperimentSpec, RunStore, SweepEngine, execute_spec
from repro.experiments import resilience, runner
from repro.experiments.plan import (
    absorb_cache_stats,
    build_plan,
    make_point_task,
    prepare_strength_base,
)
from repro.experiments.resilience import PointFailure, RetryPolicy, RunMonitor
from repro.experiments.store import compare_artifacts, render_artifact
from repro.experiments.training import TrainingSetup, train_baseline
from repro.obs import Observability, Tracer, read_trace_file
from repro.utils import faultinject
from repro.utils.faultinject import InjectedFault

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
        name="chaos-sweep",
    )
    return spec.with_updates(**overrides) if overrides else spec


def points_of(run):
    return [(point.tolerance, point.accuracy, point.ranks) for point in run.result.points]


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faultinject.uninstall()
    os.environ.pop(faultinject.ENV_VAR, None)
    yield
    faultinject.uninstall()
    os.environ.pop(faultinject.ENV_VAR, None)


@pytest.fixture(scope="module")
def clean_reference():
    """One storeless clean run; the bit-identity baseline for every test."""
    run = execute_spec(sweep_spec())
    return [(p.tolerance, p.accuracy, p.ranks) for p in run.result.points]


class TestRetryPolicy:
    def test_defaults_do_not_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert not policy.wants_retry(ValueError("x"), failed_attempts=1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(pool_rebuilds=-1)

    def test_retry_on_matches_base_classes(self):
        policy = RetryPolicy(max_attempts=2, retry_on=("RuntimeError",))
        assert policy.matches(InjectedFault("boom"))  # subclass of RuntimeError
        assert not policy.matches(ValueError("nope"))
        assert policy.wants_retry(InjectedFault("boom"), failed_attempts=1)
        assert not policy.wants_retry(InjectedFault("boom"), failed_attempts=2)

    def test_backoff_doubles(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_round_trip_and_unknown_field(self):
        policy = RetryPolicy(max_attempts=3, timeout_s=5.0)
        assert RetryPolicy.from_dict(policy.as_dict()) == policy
        with pytest.raises(ConfigurationError, match="unknown RetryPolicy"):
            RetryPolicy.from_dict({"max_attempts": 2, "jitter": True})

    def test_policy_is_fingerprint_neutral(self):
        base = sweep_spec()
        tweaked = sweep_spec(retry={"max_attempts": 5, "timeout_s": 60.0})
        assert base.fingerprint() == tweaked.fingerprint()


class TestPointFailure:
    def test_from_exception_and_payload_round_trip(self):
        try:
            raise ValueError("the point exploded")
        except ValueError as error:
            failure = PointFailure.from_exception(
                index=3, label="tolerance=0.3", error=error, attempts=2, elapsed_s=1.5
            )
        assert failure.error_type == "ValueError"
        assert "the point exploded" in failure.traceback
        clone = PointFailure.from_payload(failure.to_payload())
        assert clone.index == 3 and clone.attempts == 2
        # Unknown payload keys (artifacts from a newer version) are ignored.
        payload = dict(failure.to_payload(), future_field=1)
        assert PointFailure.from_payload(payload).message == failure.message


class TestPointIsolation:
    def test_partial_run_persists_and_reports(self, store, clean_reference):
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 1}]):
            run = execute_spec(sweep_spec(), store=store)
        assert run.computed_points == 1
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.error_type == "InjectedFault"
        assert "tolerance=0.3" in failure.label
        assert "FAILED" in run.format_summary()
        # The surviving point is bit-identical to the clean run.
        assert points_of(run) == clean_reference[:1]
        artifact = store.load(run.fingerprint)
        assert artifact["complete"] is False
        assert len(artifact["failures"]) == 1
        (record,) = artifact["failures"].values()
        assert record["error_type"] == "InjectedFault"
        assert "InjectedFault" in record["traceback"]
        rendered = render_artifact(artifact)
        assert "failed points: 1" in rendered
        assert "InjectedFault" in rendered
        other = store.load(run.fingerprint)
        assert "failed points" in compare_artifacts(artifact, other)

    def test_resume_retries_only_the_failed_point(self, store, clean_reference):
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 1}]):
            execute_spec(sweep_spec(), store=store)
        healed = execute_spec(sweep_spec(), store=store)
        assert healed.computed_points == 1
        assert healed.reused_points == 1
        assert not healed.failures
        assert points_of(healed) == clean_reference
        artifact = store.load(healed.fingerprint)
        assert artifact["complete"] is True
        assert "failures" not in artifact

    def test_strict_mode_aborts_on_first_failure(self, store):
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 0}]):
            with pytest.raises(PointFailureError, match="strict"):
                execute_spec(sweep_spec(), store=store, strict=True)

    def test_every_point_failing_aborts_even_without_strict(self):
        with faultinject.injected([{"site": "point", "kind": "raise"}]):
            with pytest.raises(PointFailureError, match="every sweep point failed"):
                execute_spec(sweep_spec())


class TestRetry:
    def test_transient_fault_is_retried_bit_identically(self, clean_reference):
        plan = [{"site": "point", "kind": "raise", "index": 1, "attempts": [1]}]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(retry={"max_attempts": 2}))
        assert not run.failures
        assert points_of(run) == clean_reference

    def test_retry_on_filters_exception_types(self):
        policy = {"max_attempts": 3, "retry_on": ["ValueError"]}
        plan = [{"site": "point", "kind": "raise", "index": 1}]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(retry=policy))
        # InjectedFault is a RuntimeError: not retryable under this policy.
        assert run.failures[0].attempts == 1

    def test_exhausted_retries_record_the_attempt_count(self):
        plan = [{"site": "point", "kind": "raise", "index": 1}]  # every attempt
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(retry={"max_attempts": 3}))
        assert run.failures[0].attempts == 3


class TestPoolSupervision:
    def test_worker_kill_rebuilds_pool_and_completes(self, clean_reference):
        plan = [{"site": "point", "kind": "kill", "index": 0, "attempts": [1]}]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(workers=2))
        assert not run.failures
        assert run.computed_points == 2
        assert points_of(run) == clean_reference

    def test_persistent_killer_fails_one_point_not_the_run(self, clean_reference):
        plan = [{"site": "point", "kind": "kill", "index": 0}]  # every attempt
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(workers=2))
        assert len(run.failures) == 1
        assert run.failures[0].index == 0
        assert points_of(run) == clean_reference[1:]

    def test_environmental_breakage_degrades_to_serial(self, caplog, clean_reference):
        """Two *different* solo points breaking pools means the environment
        is at fault: the run finishes under serial supervision in-parent."""
        plan = [
            {"site": "point", "kind": "kill", "index": 0, "attempts": [1, 2]},
            {"site": "point", "kind": "kill", "index": 1, "attempts": [1, 2]},
        ]
        with faultinject.injected(plan):
            run = execute_spec(sweep_spec(workers=2))
        assert not run.failures
        assert points_of(run) == clean_reference
        assert "serial" in " ".join(record.message for record in caplog.records)

    def test_hung_point_times_out(self, clean_reference):
        plan = [{"site": "point", "kind": "hang", "index": 0, "seconds": 30}]
        spec = sweep_spec(workers=2, retry={"timeout_s": 2.0})
        with faultinject.injected(plan):
            run = execute_spec(spec)
        assert [f.error_type for f in run.failures] == ["PointTimeoutError"]
        assert points_of(run) == clean_reference[1:]

    def test_pool_failure_parity_with_serial(self, store, tmp_path):
        """A pool run's partial artifact equals the serial run's."""
        plan = [{"site": "point", "kind": "raise", "index": 1}]
        with faultinject.injected(plan):
            serial = execute_spec(sweep_spec(), store=store)
        pool_store = RunStore(tmp_path / "pool-runs")
        with faultinject.injected(plan):
            pool = execute_spec(sweep_spec(workers=2), store=pool_store)
        assert points_of(serial) == points_of(pool)
        assert [f.index for f in serial.failures] == [f.index for f in pool.failures]


class TestJournalAndInterrupt:
    def test_interrupt_drains_and_persists_partial(self, store, clean_reference):
        plan = [{"site": "point", "kind": "interrupt", "index": 1}]
        with faultinject.injected(plan):
            with pytest.raises(RunInterrupted, match="partial artifact"):
                execute_spec(sweep_spec(), store=store)
        spec = sweep_spec()
        artifact = store.load(spec.fingerprint())
        assert artifact is not None and artifact["complete"] is False
        assert len(artifact["points"]) == 1

    def test_journal_resume_is_bit_identical(self, store, clean_reference):
        plan = [{"site": "point", "kind": "interrupt", "index": 1}]
        with faultinject.injected(plan):
            with pytest.raises(RunInterrupted):
                execute_spec(sweep_spec(), store=store)
        resumed = execute_spec(sweep_spec(), store=store)
        assert resumed.computed_points == 1
        assert resumed.reused_points == 1
        assert points_of(resumed) == clean_reference
        # The journal is consumed once the artifact is complete.
        assert store.load_journal(sweep_spec().fingerprint()) == {}

    def test_journal_survives_a_hard_crash(self, store, clean_reference):
        """Simulate a crash *after* point 0 journaled: drop the artifact
        write entirely and keep only the journal, then resume from it."""
        spec = sweep_spec()
        with faultinject.injected([{"site": "point", "kind": "interrupt", "index": 1}]):
            with pytest.raises(RunInterrupted):
                execute_spec(spec, store=store)
        # A real SIGKILL never reaches the artifact-merge step; emulate that
        # by deleting the partial artifact and leaving the journal behind.
        assert store.delete(spec.fingerprint()) is True
        assert len(store.load_journal(spec.fingerprint())) == 1
        resumed = execute_spec(spec, store=store)
        assert resumed.computed_points == 1
        assert resumed.reused_points == 1
        assert points_of(resumed) == clean_reference

    def test_interrupt_without_store_reports_discarded(self):
        plan = [{"site": "point", "kind": "interrupt", "index": 1}]
        with faultinject.injected(plan):
            with pytest.raises(RunInterrupted, match="discarded"):
                execute_spec(sweep_spec())


class TestMonitorUnit:
    def test_strict_monitor_raises_on_record(self):
        monitor = RunMonitor(strict=True)
        failure = PointFailure(index=0, label="p0", error_type="ValueError", message="x")
        with pytest.raises(PointFailureError):
            monitor.record_failure(0, failure)

    def test_ordered_failures_sorted_by_slot(self):
        monitor = RunMonitor()
        f2 = PointFailure(index=2, label="p2", error_type="E", message="m")
        f0 = PointFailure(index=0, label="p0", error_type="E", message="m")
        monitor.record_failure(2, f2)
        monitor.record_failure(0, f0)
        assert [f.index for f in monitor.ordered_failures()] == [0, 2]

    def test_on_success_hook_sees_each_outcome(self):
        seen = {}
        monitor = RunMonitor(on_success=lambda slot, outcome: seen.update({slot: outcome}))
        monitor.record_success(1, "result")
        assert seen == {1: "result"}

    def test_attempts_cover_successes_and_failures(self):
        monitor = RunMonitor()
        monitor.record_success(0, "first try")
        monitor.record_success(1, "recovered", attempts=3)
        failure = PointFailure(index=2, label="p2", error_type="E", message="m", attempts=2)
        monitor.record_failure(2, failure)
        assert monitor.attempts == {0: 1, 1: 3, 2: 2}
        assert list(monitor.failures) == [2]


class TestGroupDeletionParity:
    """The λ-sweep path threads the routing cache through supervision."""

    def test_group_deletion_partial_and_resume(self, store):
        spec = sweep_spec(method="group_deletion", grid=(1e-4, 1e-3))
        reference = execute_spec(spec)
        ref_points = [(p.strength, p.accuracy) for p in reference.result.points]
        with faultinject.injected([{"site": "point", "kind": "raise", "index": 0}]):
            partial = execute_spec(spec, store=store)
        assert len(partial.failures) == 1
        healed = execute_spec(spec, store=store)
        assert healed.computed_points == 1 and healed.reused_points == 1
        assert [(p.strength, p.accuracy) for p in healed.result.points] == ref_points


def figure8_tiny() -> ExperimentSpec:
    """The registered figure8 at tiny scale: three λ points in lockstep, a
    parent's stack of two beside a worker's stack of one on 2+ CPUs."""
    return REGISTRY.get("figure8", scale="tiny")


@pytest.fixture(scope="module")
def clean_figure8():
    return execute_spec(figure8_tiny()).payload


def points_node(path):
    (points,) = [r for r in read_trace_file(path) if r.get("node") == "points"]
    return points["status"], points["attempts"], points["retries"]


class TestLockstepFaults:
    """The ``point`` site reaches the lockstep stack: attempt 1 is the stack,
    and the serial re-run from pristine copies continues at attempt 2."""

    def test_lost_stack_reruns_serially_bit_identically(
        self, tmp_path, clean_figure8, monkeypatch
    ):
        def refuse(self, memo):
            raise AssertionError("a TrainingSetup was deep-copied")

        # The pristine copies share the points' read-only setup and datasets.
        monkeypatch.setattr(TrainingSetup, "__deepcopy__", refuse, raising=False)
        obs = Observability(tracer=Tracer(tmp_path / "traces.jsonl"))
        plan = [{"site": "point", "kind": "raise", "index": 0, "attempts": [1]}]
        with faultinject.injected(plan):
            run = execute_spec(figure8_tiny(), obs=obs)
        obs.tracer.close()
        # The lost stack charged no retry budget: the default policy (one
        # attempt) still finishes every point, and the serial re-run counts
        # on from the stack's attempt.
        assert not run.failures
        assert run.computed_points == 3
        assert run.payload == clean_figure8
        assert points_node(obs.tracer.path) == ("done", 2, 1)

    def test_persistent_fault_fails_only_its_point(self):
        plan = [{"site": "point", "kind": "raise", "index": 0}]  # every attempt
        with faultinject.injected(plan):
            run = execute_spec(figure8_tiny())
        assert [(f.index, f.attempts) for f in run.failures] == [(0, 1)]
        assert "attempt=2" in run.failures[0].message
        assert run.computed_points == 2

    def test_interrupt_persists_then_resumes(self, store, clean_figure8):
        plan = [{"site": "point", "kind": "interrupt", "index": 1}]
        with faultinject.injected(plan):
            with pytest.raises(RunInterrupted, match="partial artifact"):
                execute_spec(figure8_tiny(), store=store)
        resumed = execute_spec(figure8_tiny(), store=store)
        assert not resumed.failures
        assert (resumed.computed_points, resumed.reused_points) == (3, 0)
        assert resumed.payload == clean_figure8


# ------------------------------------------------------------- lockstep split
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="the λ split forks its workers"
)


def set_cpus(monkeypatch, count):
    """Let the λ split see ``count`` usable CPUs, whatever this host has."""
    monkeypatch.setattr(resilience, "usable_cpus", lambda: count)


@pytest.fixture
def two_cpus(monkeypatch):
    set_cpus(monkeypatch, 2)


@pytest.fixture(scope="module")
def figure8_tasks():
    """Fresh tiny figure8 λ tasks on demand, all on one trained, clipped base."""
    spec = figure8_tiny()
    workload = spec.resolved_workload()
    network, _, setup = train_baseline(workload)
    base = prepare_strength_base(spec, workload, setup, network)
    points = build_plan(spec).points
    return lambda: [make_point_task(spec, workload, setup, base, p) for p in points]


def record_stacks(monkeypatch, fail=None):
    """Record the size of every stack the parent trains.

    ``fail(in_parent)`` runs before each stack trains, in the parent or in
    a forked worker (which inherits the patch), and may raise or exit.
    """
    parent = os.getpid()
    sizes = []
    train = runner._run_lockstep_strength_points

    def recording(tasks):
        in_parent = os.getpid() == parent
        if in_parent:
            sizes.append(len(tasks))
        if fail is not None:
            fail(in_parent)
        return train(tasks)

    monkeypatch.setattr(runner, "_run_lockstep_strength_points", recording)
    return sizes


def record_serial_points(monkeypatch):
    """Record the strength of every λ point the parent runs serially."""
    strengths = []
    run = runner.run_strength_point

    def recording(task):
        strengths.append(task.strength)
        return run(task)

    monkeypatch.setattr(runner, "run_strength_point", recording)
    return strengths


def fail_in(where):
    """A ``record_stacks`` hook that raises in the ``"parent"``'s or the
    ``"worker"``'s stack; ``None`` (no hook) for ``where=None``."""

    def fail(in_parent):
        if in_parent == (where == "parent"):
            raise RuntimeError(f"the {where}'s stack failed")

    return None if where is None else fail


def weight_bytes(network):
    return [
        (name, p.data.tobytes(), None if p.mask is None else p.mask.tobytes())
        for name, p in network.named_parameters()
    ]


def lockstep_engine(**retry):
    return SweepEngine(mode="lockstep", retry=RetryPolicy(**retry))


def cache_totals(outcomes):
    """The sweep's routing-cache counters, summed as the payload sums them."""
    totals = {}
    for slot in sorted(outcomes):
        absorb_cache_stats(totals, outcomes[slot])
    return totals


class TestLockstepGroups:
    @pytest.mark.parametrize(
        "cpus, points, batch, groups",
        [
            (2, 3, 32, [[0, 1], [2]]),
            (8, 3, 32, [[0, 1], [2]]),
            (8, 4, 32, [[0, 1], [2, 3]]),
            (8, 5, 32, [[0, 1, 2], [3, 4]]),
            (2, 2, 32, [[0], [1]]),
            (2, 3, 16, [[0, 1], [2]]),
            (2, 3, 15, [[0, 1, 2]]),
            (1, 3, 32, [[0, 1, 2]]),
        ],
    )
    def test_two_contiguous_groups_the_first_larger(
        self, monkeypatch, cpus, points, batch, groups
    ):
        set_cpus(monkeypatch, cpus)
        layout = resilience._lockstep_groups(points, batch)
        assert [list(group) for group in layout] == groups


@needs_fork
class TestLockstepSplit:
    """A λ lockstep stack split across two processes: the parent trains the
    first, larger group and a fork-fed worker the other, and no point's
    bytes or the sweep's routing counters depend on the split."""

    def test_split_matches_one_stack(self, figure8_tasks, monkeypatch):
        set_cpus(monkeypatch, 1)
        one = lockstep_engine().run_strength_points(figure8_tasks(), RunMonitor())
        set_cpus(monkeypatch, 2)
        sizes = record_stacks(monkeypatch)
        monitor = RunMonitor()
        split = lockstep_engine().run_strength_points(figure8_tasks(), monitor)
        assert sizes == [2]  # the worker trained the third point
        assert sorted(split) == sorted(one) == [0, 1, 2]
        for slot in one:
            assert weight_bytes(split[slot].network) == weight_bytes(one[slot].network)
            assert split[slot].wire_fractions == one[slot].wire_fractions
            assert split[slot].routing_area_fractions == one[slot].routing_area_fractions
            assert split[slot].routing_cache_stats == one[slot].routing_cache_stats
        assert one[0].routing_cache_stats == {"hits": 171, "misses": 18, "size": 18}
        assert monitor.attempts == {0: 1, 1: 1, 2: 1}

    @pytest.mark.parametrize("loss", ["raise", "exit"])
    def test_lost_worker_reruns_only_its_group(
        self, two_cpus, monkeypatch, caplog, tmp_path, clean_figure8, loss
    ):
        def fail(in_parent):
            if in_parent:
                return
            if loss == "raise":
                raise RuntimeError("the worker's stack failed")
            os._exit(1)

        sizes = record_stacks(monkeypatch, fail)
        serial = record_serial_points(monkeypatch)
        obs = Observability(tracer=Tracer(tmp_path / "traces.jsonl"))
        run = execute_spec(figure8_tiny(), obs=obs)
        obs.tracer.close()
        assert not run.failures
        assert run.computed_points == 3
        assert run.payload == clean_figure8
        assert (sizes, serial) == ([2], [0.06])
        assert points_node(obs.tracer.path) == ("done", 2, 1)
        assert "strength=0.06 lost in its worker" in caplog.text

    def test_hung_worker_is_killed_at_its_deadline(
        self, monkeypatch, caplog, figure8_tasks
    ):
        """A worker past ``timeout_s`` is killed, and only its group re-runs
        serially, charged no attempt, to the one-stack bytes and counters."""

        def hang(in_parent):
            if not in_parent:
                time.sleep(120)

        set_cpus(monkeypatch, 1)
        one = lockstep_engine().run_strength_points(figure8_tasks(), RunMonitor())
        set_cpus(monkeypatch, 2)
        sizes = record_stacks(monkeypatch, hang)
        serial = record_serial_points(monkeypatch)
        children = {child.pid for child in mp.active_children()}
        monitor = RunMonitor()
        start = time.monotonic()
        split = lockstep_engine(timeout_s=0.5).run_strength_points(figure8_tasks(), monitor)
        assert time.monotonic() - start < 60
        assert (sizes, serial) == ([2], [0.06])
        assert monitor.attempts == {0: 1, 1: 1, 2: 2}
        assert not monitor.failures
        assert sorted(split) == [0, 1, 2]
        for slot in one:
            assert weight_bytes(split[slot].network) == weight_bytes(one[slot].network)
        assert cache_totals(split) == cache_totals(one)
        assert "no result within its 0.5s wall-clock budget" in caplog.text
        deadline = time.monotonic() + 10
        while {child.pid for child in mp.active_children()} - children:
            assert time.monotonic() < deadline, "the hung worker outlived its pool"
            time.sleep(0.05)

    def test_failed_parent_stack_reruns_every_point(
        self, two_cpus, monkeypatch, tmp_path, clean_figure8
    ):
        sizes = record_stacks(monkeypatch, fail_in("parent"))
        serial = record_serial_points(monkeypatch)
        obs = Observability(tracer=Tracer(tmp_path / "traces.jsonl"))
        run = execute_spec(figure8_tiny(), obs=obs)
        obs.tracer.close()
        assert not run.failures
        assert run.payload == clean_figure8
        assert (sizes, serial) == ([2], [0.01, 0.03, 0.06])
        assert points_node(obs.tracer.path) == ("done", 2, 1)

    def test_interrupt_in_the_parent_stack(self, two_cpus, monkeypatch, figure8_tasks):
        def fail(in_parent):
            if in_parent:
                raise KeyboardInterrupt

        record_stacks(monkeypatch, fail)
        monitor = RunMonitor()
        assert lockstep_engine().run_strength_points(figure8_tasks(), monitor) == {}
        assert monitor.interrupted
        assert not monitor.attempts

    @pytest.mark.parametrize("limit", ["one-cpu", "no-fork", "small-batch"])
    def test_one_stack_starts_no_process(self, monkeypatch, figure8_tasks, limit):
        set_cpus(monkeypatch, 1 if limit == "one-cpu" else 2)
        if limit == "no-fork":
            monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        tasks = figure8_tasks()
        if limit == "small-batch":
            for task in tasks:
                task.setup = dataclasses.replace(task.setup, batch_size=8)

        def no_process(*args, **kwargs):
            raise AssertionError("a process context was requested")

        monkeypatch.setattr(mp, "get_context", no_process)
        sizes = record_stacks(monkeypatch)
        monitor = RunMonitor()
        outcomes = lockstep_engine().run_strength_points(tasks, monitor)
        assert sizes == [3]
        assert sorted(outcomes) == [0, 1, 2]
        assert monitor.attempts == {0: 1, 1: 1, 2: 1}

    @pytest.mark.parametrize(
        "cpus, failing, inside",
        [
            (2, None, [1, 1, 1]),
            (1, None, [2, 2, 2]),
            (2, "worker", [1, 1, 2]),
            (2, "parent", [2, 2, 2]),
        ],
        ids=["split", "one-stack", "lost-worker", "failed-parent"],
    )
    def test_parent_blas_pin_lasts_through_the_finish(
        self, monkeypatch, blas_threads, figure8_tasks, cpus, failing, inside
    ):
        """A split holds one BLAS thread until its stacks' points are finished;
        one stack, and a serial re-run after a lost stack, keep the parent's
        count."""
        set_cpus(monkeypatch, cpus)
        record_stacks(monkeypatch, fail_in(failing))
        seen = []
        monitor = RunMonitor(on_success=lambda slot, outcome: seen.append(blas_threads()))
        lockstep_engine().run_strength_points(figure8_tasks(), monitor)
        assert seen == inside
        assert blas_threads() == 2
