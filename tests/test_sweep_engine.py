"""Tests for the sweep execution engine and its supporting machinery.

Covers: serial↔parallel bit-identity of sweep points (``workers=1`` vs
``workers=2``), single-threaded BLAS in pool workers, the fork-fed pool (no
setup pickled, pristine networks on retry and rebuild), deterministic per-point
seeding, lockstep sweeps and the architecture signature a stack checks,
routing-analysis memoization (hit counts during group-deletion record
steps), the vectorized crossbar group Lasso, and the stub-row rendering of
the sweep tables.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import (
    CrossbarGroupLasso,
    GroupDeletionConfig,
    GroupConnectionDeleter,
    convert_to_lowrank,
    derive_network_groups,
    flatten_groups,
    matrix_group_norms,
)
from repro.exceptions import ConfigurationError
from repro.experiments import (
    ExperimentContext,
    StrengthPoint,
    StrengthSweepResult,
    SweepEngine,
    TolerancePoint,
    ToleranceSweepResult,
    execute_spec,
    mlp_workload,
    spec_for_workload,
    train_baseline,
)
from repro.experiments.plan import build_plan, make_point_task
from repro.experiments.resilience import RetryPolicy, RunMonitor, _pool_map
from repro.experiments.runner import run_tolerance_point
from repro.experiments.training import TrainingSetup
from repro.hardware.routing import RoutingAnalysisCache, analyze_routing, mask_fingerprint
from repro.nn import GroupLassoRegularizer
from repro.utils import faultinject
from repro.utils import blas
from repro.utils.rng import derive_point_seed


@pytest.fixture(scope="module")
def trained_baseline():
    workload = mlp_workload("tiny")
    network, accuracy, setup = train_baseline(workload)
    return workload, network, accuracy, setup


TOLERANCES = [0.02, 0.3]
STRENGTHS = [0.01, 0.08]


def sweep(workload, method, grid, *, setup, baseline_network,
          baseline_accuracy=None, engine=None, **fields):
    """A sweep spec executed on a pre-trained baseline; its result view."""
    spec = spec_for_workload(
        "sweep", workload, method=method, grid=tuple(grid), engine=engine, **fields
    )
    context = ExperimentContext(
        workload=workload,
        setup=setup,
        baseline_network=baseline_network,
        baseline_accuracy=baseline_accuracy,
    )
    return execute_spec(spec, context=context).result


class TestSerialParallelParity:
    def test_rank_clipping_points_bit_identical(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, baseline_accuracy=accuracy)
        serial = sweep(
            workload, "rank_clipping", TOLERANCES, engine=SweepEngine(workers=1), **kwargs
        )
        parallel = sweep(
            workload, "rank_clipping", TOLERANCES, engine=SweepEngine(workers=2), **kwargs
        )
        assert serial.baseline_accuracy == parallel.baseline_accuracy
        assert serial.points == parallel.points  # frozen dataclass equality: bitwise

    def test_group_deletion_points_bit_identical(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(
            setup=setup, baseline_network=network, include_small_matrices=True
        )
        serial = sweep(
            workload, "group_deletion", STRENGTHS, engine=SweepEngine(workers=1), **kwargs
        )
        parallel = sweep(
            workload, "group_deletion", STRENGTHS, engine=SweepEngine(workers=2), **kwargs
        )
        assert serial.baseline_accuracy == parallel.baseline_accuracy
        assert serial.points == parallel.points

    def test_per_point_seed_is_order_insensitive(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, baseline_accuracy=accuracy)
        serial = sweep(
            workload,
            "rank_clipping",
            TOLERANCES,
            engine=SweepEngine(workers=1, per_point_seed=True),
            **kwargs,
        )
        parallel = sweep(
            workload,
            "rank_clipping",
            TOLERANCES,
            engine=SweepEngine(workers=2, per_point_seed=True),
            **kwargs,
        )
        assert serial.points == parallel.points

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=0)
        with pytest.raises(ConfigurationError):
            SweepEngine(mode="turbo")


def _blas_threads(_task):
    """Pool task: the OpenBLAS thread count of the process that runs it."""
    return blas._thread_count_api()[0]()


class TestPoolWorkers:
    def test_workers_run_single_threaded_blas(self):
        """Forked workers must not inherit the parent's multithreaded BLAS."""
        if blas._thread_count_api() is None:
            pytest.skip("numpy's OpenBLAS library was not found")
        outcomes = SweepEngine(workers=2).map_points(_blas_threads, [0, 1], RunMonitor())
        assert outcomes == {0: 1, 1: 1}


def tolerance_tasks(trained_baseline):
    """Fresh ε point tasks over the module's baseline, as the graph builds them."""
    workload, network, _, setup = trained_baseline
    spec = spec_for_workload(
        "sweep", workload, method="rank_clipping", grid=tuple(TOLERANCES)
    )
    return [
        make_point_task(spec, workload, setup, network, point)
        for point in build_plan(spec).points
    ]


def clipped(outcomes):
    """``{slot: (ranks, weight bytes)}`` of ε outcomes, for bitwise comparison."""
    return {
        slot: (
            outcome.ranks,
            {name: value.tobytes() for name, value in outcome.network.state_dict().items()},
        )
        for slot, outcome in outcomes.items()
    }


@pytest.fixture(scope="module")
def serial_clipped(trained_baseline):
    tasks = tolerance_tasks(trained_baseline)
    return clipped(SweepEngine().map_points(run_tolerance_point, tasks, RunMonitor()))


#: Marker file of :func:`_clip_then_fail_once`; forked workers inherit it.
_FAIL_ONCE_MARKER = ""


def _clip_then_fail_once(task):
    """Pool task: clip ``task.network`` in place, then fail the first run anywhere."""
    outcome = run_tolerance_point(task)
    try:
        os.close(os.open(_FAIL_ONCE_MARKER, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return outcome
    raise RuntimeError("failed after training its network")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool hands its tasks over through fork",
)
class TestForkFedPool:
    def test_no_setup_is_pickled(self, trained_baseline, serial_clipped, monkeypatch):
        tasks = tolerance_tasks(trained_baseline)

        def refuse(self):
            raise AssertionError("a TrainingSetup was pickled")

        monkeypatch.setattr(TrainingSetup, "__reduce__", refuse)
        monitor = RunMonitor()
        outcomes = SweepEngine(workers=2).map_points(run_tolerance_point, tasks, monitor)
        assert not monitor.failures
        assert clipped(outcomes) == serial_clipped

    def test_retry_trains_a_pristine_network(
        self, trained_baseline, serial_clipped, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(globals(), "_FAIL_ONCE_MARKER", str(tmp_path / "failed"))
        engine = SweepEngine(workers=2, retry=RetryPolicy(max_attempts=2))
        monitor = RunMonitor()
        # One task makes a one-worker pool, so the retry runs in the worker
        # whose inherited task the failed attempt started from.
        outcomes = _pool_map(
            engine, _clip_then_fail_once, tolerance_tasks(trained_baseline)[:1], monitor
        )
        assert not monitor.failures
        assert monitor.attempts == {0: 2}
        assert clipped(outcomes) == {0: serial_clipped[0]}

    def test_isolation_rebuilds_fork_pristine_tasks(self, trained_baseline, serial_clipped):
        # The first kill breaks the 2-worker pool; the second breaks the
        # isolation pool that point 0 then runs in alone.
        plan = [{"site": "point", "kind": "kill", "index": 0, "attempts": [1, 2]}]
        monitor = RunMonitor()
        with faultinject.injected(plan):
            outcomes = SweepEngine(workers=2).map_points(
                run_tolerance_point, tolerance_tasks(trained_baseline), monitor
            )
        assert monitor.pool_rebuilds == 2
        assert not monitor.failures
        assert clipped(outcomes) == serial_clipped


class TestLockstepMode:
    def test_lockstep_sweep_bit_identical_to_points(self, trained_baseline):
        """mode="lockstep" must reproduce the per-point engine path bitwise."""
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, include_small_matrices=True)
        points = sweep(
            workload, "group_deletion", STRENGTHS, engine=SweepEngine(), **kwargs
        )
        lockstep = sweep(
            workload, "group_deletion", STRENGTHS, engine=SweepEngine(mode="lockstep"), **kwargs
        )
        assert points.baseline_accuracy == lockstep.baseline_accuracy
        assert points.points == lockstep.points  # frozen dataclass equality: bitwise
        assert lockstep.routing_cache_stats["hits"] > 0

    def test_lockstep_with_per_point_seed(self, trained_baseline):
        """Per-point data streams keep lockstep bit-identical to points mode."""
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, include_small_matrices=True)
        points = sweep(
            workload, "group_deletion", STRENGTHS, engine=SweepEngine(per_point_seed=True), **kwargs
        )
        lockstep = sweep(
            workload,
            "group_deletion",
            STRENGTHS,
            engine=SweepEngine(per_point_seed=True, mode="lockstep"),
            **kwargs,
        )
        assert points.points == lockstep.points

    def test_single_point_falls_back_to_serial(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, include_small_matrices=True)
        points = sweep(
            workload, "group_deletion", [0.05], engine=SweepEngine(), **kwargs
        )
        lockstep = sweep(
            workload, "group_deletion", [0.05], engine=SweepEngine(mode="lockstep"), **kwargs
        )
        assert points.points == lockstep.points

    def test_tolerance_sweep_ignores_lockstep_mode(self, trained_baseline):
        """ε points diverge structurally at the first clip; the points path runs."""
        workload, network, accuracy, setup = trained_baseline
        kwargs = dict(setup=setup, baseline_network=network, baseline_accuracy=accuracy)
        points = sweep(
            workload, "rank_clipping", TOLERANCES, engine=SweepEngine(), **kwargs
        )
        lockstep = sweep(
            workload, "rank_clipping", TOLERANCES, engine=SweepEngine(mode="lockstep"), **kwargs
        )
        assert points.points == lockstep.points


class TestRoutingCacheThreading:
    def test_serial_points_start_warm(self, trained_baseline):
        """Later serial points must reuse entries earlier points discovered."""
        from repro.experiments.runner import StrengthPointTask, run_strength_point
        from repro.core import GroupDeletionConfig, convert_to_lowrank
        import copy

        workload, network, accuracy, setup = trained_baseline
        engine = SweepEngine()
        scale = workload.scale
        lowrank = convert_to_lowrank(workload.build(7))

        def make_tasks():
            return [
                StrengthPointTask(
                    index=index,
                    strength=strength,
                    network=copy.deepcopy(lowrank),
                    setup=engine.point_setup(setup, index),
                    config=GroupDeletionConfig(
                        strength=strength,
                        iterations=scale.deletion_iterations,
                        finetune_iterations=scale.finetune_iterations,
                        include_small_matrices=True,
                    ),
                    record_interval=scale.record_interval,
                )
                for index, strength in enumerate(STRENGTHS)
            ]

        cold = [run_strength_point(task) for task in make_tasks()]
        outcomes = engine.run_strength_points(make_tasks(), RunMonitor())
        warm = [outcomes[slot] for slot in sorted(outcomes)]
        # Identical results either way (memoized analyses are value objects)...
        for a, b in zip(cold, warm):
            assert a.wire_fractions == b.wire_fractions
            assert a.routing_area_fractions == b.routing_area_fractions
        # ...but the threaded path converts later points' initial misses into
        # hits: the dense pre-deletion mask is shared across all points.
        cold_hits = sum(o.routing_cache_stats["hits"] for o in cold)
        cold_misses = sum(o.routing_cache_stats["misses"] for o in cold)
        warm_hits = sum(o.routing_cache_stats["hits"] for o in warm)
        warm_misses = sum(o.routing_cache_stats["misses"] for o in warm)
        assert warm_hits > cold_hits
        assert warm_misses < cold_misses

    def test_outcomes_carry_cache_entries(self, trained_baseline):
        from repro.experiments.runner import StrengthPointTask, run_strength_point
        from repro.core import GroupDeletionConfig, convert_to_lowrank
        from repro.hardware.routing import RoutingAnalysisCache
        import copy

        workload, network, accuracy, setup = trained_baseline
        scale = workload.scale
        engine = SweepEngine()
        task = StrengthPointTask(
            index=0,
            strength=0.05,
            network=convert_to_lowrank(workload.build(8)),
            setup=engine.point_setup(setup, 0),
            config=GroupDeletionConfig(
                strength=0.05,
                iterations=scale.deletion_iterations,
                finetune_iterations=scale.finetune_iterations,
                include_small_matrices=True,
            ),
            record_interval=scale.record_interval,
        )
        outcome = run_strength_point(task)
        assert outcome.routing_cache_entries
        merged = RoutingAnalysisCache()
        assert merged.merge_entries(outcome.routing_cache_entries) == len(
            outcome.routing_cache_entries
        )
        # Re-merging adds nothing; counters are untouched by merging.
        assert merged.merge_entries(outcome.routing_cache_entries) == 0
        assert merged.stats()["hits"] == 0 and merged.stats()["misses"] == 0

    def test_merge_respects_maxsize(self):
        from repro.hardware.routing import RoutingAnalysisCache

        entries = [((("p",), bytes([i])), i) for i in range(8)]
        small = RoutingAnalysisCache(maxsize=3)
        small.merge_entries(entries)
        assert len(small) <= 3


class TestDerivePointSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_point_seed(0, index) for index in range(8)]
        assert seeds == [derive_point_seed(0, index) for index in range(8)]
        assert len(set(seeds)) == len(seeds)
        assert derive_point_seed(1, 0) != derive_point_seed(0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_point_seed(0, -1)


class TestBatchedEvaluation:
    def test_signature_separates_differing_layer_config(self):
        """Same shapes but different activation config must not be stacked."""
        from repro.nn import LeakyReLU, Linear, Sequential
        from repro.nn.batched import architecture_signature

        def network(slope):
            return Sequential(
                [
                    Linear(6, 5, name="fc1", rng=1),
                    LeakyReLU(negative_slope=slope, name="act"),
                    Linear(5, 3, name="fc2", rng=2),
                ]
            )

        gentle, steep = network(0.01), network(0.9)
        assert architecture_signature(gentle) != architecture_signature(steep)


class TestRoutingMemoization:
    def test_cache_reports_match_direct_analysis(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(0))
        grouped = derive_network_groups(lowrank, include_small_matrices=True)
        cache = RoutingAnalysisCache()
        for matrix in grouped:
            direct = analyze_routing(matrix.values(), matrix.plan, name=matrix.name)
            assert cache.analyze(matrix.values(), matrix.plan, name=matrix.name) == direct
            assert cache.analyze(matrix.values(), matrix.plan, name=matrix.name) == direct
        assert cache.hits == len(grouped)
        assert cache.misses == len(grouped)

    def test_record_steps_hit_the_cache(self, trained_baseline):
        """Record steps re-analyze near-identical masks — they must memoize."""
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(1))
        deleter = GroupConnectionDeleter(
            GroupDeletionConfig(
                strength=0.05, iterations=60, finetune_iterations=40,
                include_small_matrices=True,
            ),
            record_interval=10,
        )
        deleter.run(lowrank, setup.trainer_factory)
        stats = deleter.routing_cache.stats()
        # Every record step analyzes every matrix; only mask changes miss.
        assert stats["hits"] > stats["misses"]
        assert stats["hits"] > 0

    def test_passed_in_empty_cache_is_the_one_filled(self, trained_baseline):
        """An empty cache is falsy; the deleter must still keep and fill it."""
        workload, network, accuracy, setup = trained_baseline
        shared = RoutingAnalysisCache()
        deleter = GroupConnectionDeleter(
            GroupDeletionConfig(
                strength=0.05, iterations=20, finetune_iterations=10,
                include_small_matrices=True,
            ),
            record_interval=10,
            routing_cache=shared,
        )
        assert deleter.routing_cache is shared
        deleter.run(convert_to_lowrank(workload.build(6)), setup.trainer_factory)
        assert len(shared) > 0
        assert shared.misses > 0

    def test_sweep_aggregates_cache_stats_and_wire_trace(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        fast = sweep(
            workload,
            "group_deletion",
            STRENGTHS,
            setup=setup,
            baseline_network=network,
            include_small_matrices=True,
        )
        assert fast.routing_cache_stats["hits"] > 0

    def test_figure5_exposes_remaining_wire_trace(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        spec = spec_for_workload(
            "figure5", workload, strength=0.05, include_small_matrices=True
        )
        context = ExperimentContext(
            workload=workload, setup=setup, baseline_network=network
        )
        series = execute_spec(spec, context=context).result
        assert series.remaining_wire_fraction
        for fractions in series.remaining_wire_fraction.values():
            assert len(fractions) == len(series.iterations)
            assert all(0.0 <= value <= 1.0 for value in fractions)

    def test_fingerprint_distinguishes_masks(self):
        mask = np.ones((8, 8), dtype=bool)
        other = mask.copy()
        other[3, 4] = False
        assert mask_fingerprint(mask) != mask_fingerprint(other)
        assert mask_fingerprint(mask) == mask_fingerprint(np.ones((8, 8), dtype=bool))
        # Shape-sensitivity: same bits, different geometry.
        assert mask_fingerprint(mask) != mask_fingerprint(np.ones((4, 16), dtype=bool))

    def test_cache_eviction(self):
        cache = RoutingAnalysisCache(maxsize=2)
        from repro.hardware.tiling import TilingPlan

        plan = TilingPlan(matrix_rows=4, matrix_cols=4, tile_rows=4, tile_cols=4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            cache.analyze(rng.standard_normal((4, 4)), plan)
        assert len(cache) <= 2
        with pytest.raises(ValueError):
            RoutingAnalysisCache(maxsize=0)


def _apply_deletion_loop_reference(grouped_matrices, *, zero_threshold, relative_threshold=0.0):
    """The seed per-group deletion loop, kept verbatim as the parity oracle."""
    from repro.core.group_deletion import effective_threshold

    deleted_counts = {}
    masks = {}
    parameters = {}
    for matrix in grouped_matrices:
        key = id(matrix.parameter)
        if key not in masks:
            existing = matrix.parameter.mask
            masks[key] = (
                np.ones(matrix.parameter.data.shape, dtype=bool)
                if existing is None
                else existing.copy()
            )
            parameters[key] = matrix.parameter
        threshold = effective_threshold(
            matrix, zero_threshold=zero_threshold, relative_threshold=relative_threshold
        )
        deleted = 0
        for group in matrix.groups:
            if group.norm() <= threshold:
                group.zero_out()
                masks[key][group.index] = False
                deleted += 1
        deleted_counts[matrix.name] = deleted
    for key, mask in masks.items():
        parameters[key].set_mask(mask)
    return deleted_counts


class TestApplyDeletionCascadeParity:
    """Vectorized apply_deletion must replicate the loop's zero-as-you-go order."""

    def _grouped(self, values):
        from repro.core.groups import derive_matrix_groups
        from repro.nn.parameter import Parameter

        return [
            derive_matrix_groups(
                Parameter(np.array(values, dtype=float)),
                name="m",
                layer_name="layer",
                transpose=False,
            )
        ]

    def test_row_deletion_cascades_borderline_column(self):
        """A row deleted first can push a column below the threshold."""
        from repro.core.group_deletion import apply_deletion

        values = np.full((4, 4), 1.0)
        values[0, :] = 0.05               # row 0 norm 0.1 <= 0.5 -> deleted
        values[1:, 0] = np.sqrt(0.25 / 3) - 1e-6  # col 0: 0.5025 before, <0.5 after
        vec = self._grouped(values)
        loop = self._grouped(values)
        vec_counts = apply_deletion(vec, zero_threshold=0.5)
        loop_counts = _apply_deletion_loop_reference(loop, zero_threshold=0.5)
        assert vec_counts == loop_counts == {"m": 2}  # the cascade fired
        np.testing.assert_array_equal(
            vec[0].parameter.mask, loop[0].parameter.mask
        )
        np.testing.assert_array_equal(
            vec[0].parameter.data, loop[0].parameter.data
        )

    def test_randomized_multi_tile_parity(self):
        from repro.core.group_deletion import apply_deletion
        from repro.core.groups import derive_matrix_groups
        from repro.hardware.library import CrossbarLibrary
        from repro.hardware.technology import TechnologyParameters
        from repro.nn.parameter import Parameter

        library = CrossbarLibrary(
            technology=TechnologyParameters(max_crossbar_rows=4, max_crossbar_cols=4)
        )
        rng = np.random.default_rng(12)
        for trial in range(5):
            values = rng.standard_normal((8, 8)) * rng.uniform(0.1, 1.0, size=(8, 8))
            pair = [
                [
                    derive_matrix_groups(
                        Parameter(values.copy()),
                        name="m",
                        layer_name="layer",
                        transpose=bool(trial % 2),
                        library=library,
                    )
                ]
                for _ in range(2)
            ]
            threshold = float(np.quantile(np.abs(values), 0.3))
            vec_counts = apply_deletion(
                pair[0], zero_threshold=threshold, relative_threshold=0.1
            )
            loop_counts = _apply_deletion_loop_reference(
                pair[1], zero_threshold=threshold, relative_threshold=0.1
            )
            assert vec_counts == loop_counts
            np.testing.assert_array_equal(
                pair[0][0].parameter.mask, pair[1][0].parameter.mask
            )
            np.testing.assert_array_equal(
                pair[0][0].parameter.data, pair[1][0].parameter.data
            )


class TestCrossbarGroupLasso:
    def test_matches_flat_group_lasso(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(2))
        grouped = derive_network_groups(lowrank, include_small_matrices=True)
        flat = GroupLassoRegularizer(flatten_groups(grouped), 0.03)
        vectorized = CrossbarGroupLasso(grouped, 0.03)
        assert vectorized.penalty() == pytest.approx(flat.penalty(), rel=1e-12)
        for param in lowrank.parameters():
            param.zero_grad()
        flat.apply_gradients()
        expected = [param.grad.copy() for param in lowrank.parameters()]
        for param in lowrank.parameters():
            param.zero_grad()
        vectorized.apply_gradients()
        for param, grad in zip(lowrank.parameters(), expected):
            np.testing.assert_allclose(param.grad, grad, atol=1e-14, rtol=0)

    def test_group_norms_match_per_group_loop(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(3))
        for matrix in derive_network_groups(lowrank, include_small_matrices=True):
            norms = matrix_group_norms(matrix.values(), matrix.plan)
            assert norms is not None
            row_norms, col_norms = norms
            flat = np.sort(np.concatenate([row_norms.ravel(), col_norms.ravel()]))
            loop = np.sort([group.norm() for group in matrix.groups])
            np.testing.assert_allclose(flat, loop, rtol=1e-12)

    def test_gradients_identical_with_and_without_penalty_first(self, trained_baseline):
        """The penalty->apply_gradients norm cache must not change results."""
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(5))
        grouped = derive_network_groups(lowrank, include_small_matrices=True)
        regularizer = CrossbarGroupLasso(grouped, 0.04)
        for param in lowrank.parameters():
            param.zero_grad()
        regularizer.apply_gradients()  # standalone call: no cache available
        standalone = [param.grad.copy() for param in lowrank.parameters()]
        for param in lowrank.parameters():
            param.zero_grad()
        regularizer.penalty()
        regularizer.apply_gradients()  # trainer order: consumes cached norms
        for param, grad in zip(lowrank.parameters(), standalone):
            np.testing.assert_array_equal(param.grad, grad)

    def test_zero_strength_is_inert(self, trained_baseline):
        workload, network, accuracy, setup = trained_baseline
        lowrank = convert_to_lowrank(workload.build(4))
        grouped = derive_network_groups(lowrank, include_small_matrices=True)
        regularizer = CrossbarGroupLasso(grouped, 0.0)
        assert regularizer.penalty() == 0.0
        before = [param.grad.copy() for param in lowrank.parameters()]
        regularizer.apply_gradients()
        for param, grad in zip(lowrank.parameters(), before):
            np.testing.assert_array_equal(param.grad, grad)


class TestFormatTableStubRows:
    def test_tolerance_table_renders_missing_layer(self):
        result = ToleranceSweepResult(workload_name="stub")
        result.points.append(
            TolerancePoint(
                tolerance=0.01, accuracy=0.9, error=0.1,
                ranks={"fc1": 4, "fc2": 3},
                layer_area_fractions={"fc1": 0.5, "fc2": 0.25},
                total_area_fraction=0.4,
            )
        )
        result.points.append(
            TolerancePoint(
                tolerance=0.05, accuracy=0.8, error=0.2,
                ranks={"fc1": 2},  # fc2 missing
                layer_area_fractions={"fc1": 0.3},
                total_area_fraction=0.3,
            )
        )
        table = result.format_table()
        assert "fc2" in table
        assert "-" in table.splitlines()[-1]

    def test_strength_table_renders_missing_matrix(self):
        result = StrengthSweepResult(workload_name="stub")
        result.points.append(
            StrengthPoint(
                strength=0.01, accuracy=0.9, error=0.1,
                wire_fractions={"fc1_u": 0.8, "fc1_v": 0.7},
                routing_area_fractions={"fc1_u": 0.64, "fc1_v": 0.49},
            )
        )
        result.points.append(
            StrengthPoint(
                strength=0.05, accuracy=0.8, error=0.2,
                wire_fractions={"fc1_u": 0.5},  # fc1_v missing
                routing_area_fractions={"fc1_u": 0.25},
            )
        )
        assert result.matrices() == ["fc1_u", "fc1_v"]
        table = result.format_table()
        assert "fc1_v" in table
        assert "-" in table.splitlines()[-1]

    def test_empty_results_render(self):
        assert "Tolerance sweep" in ToleranceSweepResult(workload_name="x").format_table()
        assert "Strength sweep" in StrengthSweepResult(workload_name="x").format_table()
