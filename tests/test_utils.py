"""Tests for repro.utils (rng, validation, logging, serialization, BLAS pin) and exceptions."""

import logging
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro import exceptions
from repro.exceptions import PointFailureError, ReproError, ShapeError
from repro.experiments import SweepEngine
from repro.experiments.resilience import RunMonitor
from repro.utils import blas, faultinject
from repro.utils.blas import single_blas_thread
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import as_rng, derive_seed, spawn_rng, temporary_seed
from repro.utils.serialization import load_json, load_state_dict, save_json, save_state_dict
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability,
    check_same_length,
    ensure_2d,
    ensure_4d,
)


class TestExceptions:
    def test_all_exceptions_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not ReproError:
                if obj.__module__ == "repro.exceptions":
                    assert issubclass(obj, ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(ReproError, Exception)


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, 10)
        b = as_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_rng_children_differ(self):
        parent = as_rng(0)
        children = spawn_rng(parent, 3)
        draws = [c.integers(0, 10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rng_rejects_zero_count(self):
        with pytest.raises(ValueError):
            spawn_rng(as_rng(0), 0)

    def test_derive_seed_in_range(self):
        seed = derive_seed(as_rng(5))
        assert 0 <= seed < 2**63

    def test_temporary_seed_restores_state(self):
        np.random.seed(123)
        before = np.random.get_state()[1][:5].copy()
        with temporary_seed(999):
            np.random.random(10)
        after = np.random.get_state()[1][:5]
        assert np.array_equal(before, after)


class TestValidation:
    def test_check_positive_int_accepts_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_check_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_check_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "x")

    def test_check_fraction_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)

    def test_check_probability_alias(self):
        assert check_probability(0.5, "p") == 0.5

    def test_ensure_2d(self):
        out = ensure_2d([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        with pytest.raises(ShapeError):
            ensure_2d(np.zeros(3), "m")
        with pytest.raises(ShapeError):
            ensure_2d(np.zeros((0, 3)), "m")

    def test_ensure_4d(self):
        assert ensure_4d(np.zeros((1, 2, 3, 4)), "x").shape == (1, 2, 3, 4)
        with pytest.raises(ShapeError):
            ensure_4d(np.zeros((2, 3)), "x")

    def test_check_same_length(self):
        check_same_length([1, 2], [3, 4], "a", "b")
        with pytest.raises(ValueError):
            check_same_length([1], [1, 2], "a", "b")


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("nn").name == "repro.nn"
        assert get_logger("repro.core").name == "repro.core"

    def test_set_verbosity_levels(self):
        set_verbosity("debug")
        assert get_logger().level == logging.DEBUG
        set_verbosity("silent")
        assert get_logger().level > logging.CRITICAL

    def test_set_verbosity_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_verbosity("chatty")


class TestSerialization:
    def test_state_dict_roundtrip(self, tmp_path):
        state = {"a.weight": np.arange(6.0).reshape(2, 3), "b.bias": np.zeros(4)}
        path = save_state_dict(tmp_path / "model.npz", state)
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        for key in state:
            assert np.array_equal(loaded[key], state[key])

    def test_json_roundtrip_with_numpy(self, tmp_path):
        payload = {
            "acc": np.float64(0.75),
            "ranks": {"conv1": np.int64(5)},
            "curve": np.array([1.0, 0.5]),
            "nested": [np.float32(1.5), {"k": np.bool_(True)}],
        }
        path = save_json(tmp_path / "out" / "result.json", payload)
        loaded = load_json(path)
        assert loaded["acc"] == pytest.approx(0.75)
        assert loaded["ranks"]["conv1"] == 5
        assert loaded["curve"] == [1.0, 0.5]
        assert loaded["nested"][1]["k"] is True


def _echo(task):
    """Pool task: its own value."""
    return task


def _fail_odd(task):
    """Pool task: fails on odd values."""
    if task % 2:
        raise ValueError(f"point {task} fails")
    return task


@pytest.fixture
def blas_threads():
    """Run numpy's OpenBLAS on 2 threads for the test; yields the count getter."""
    api = blas._thread_count_api()
    if api is None:
        pytest.skip("numpy's OpenBLAS library was not found")
    get_threads, set_threads = api
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS cannot run 2 threads")
        yield get_threads
    finally:
        set_threads(before)


class TestSingleBlasThread:
    def test_parent_runs_one_thread_during_a_pool_map(self, blas_threads):
        seen = []
        monitor = RunMonitor(on_success=lambda slot, outcome: seen.append(blas_threads()))
        outcomes = SweepEngine(workers=2).map_points(_echo, [0, 1], monitor)
        assert outcomes == {0: 0, 1: 1}
        assert seen == [1, 1]

    @pytest.mark.parametrize(
        "point_fn, faults, strict",
        [
            (_echo, [], False),
            (_fail_odd, [], False),
            (_fail_odd, [], True),
            (_echo, [{"site": "point", "kind": "kill", "index": 0}], False),
        ],
        ids=["succeeded", "point-failed", "strict-raised", "pool-broke"],
    )
    def test_map_restores_the_count(self, blas_threads, point_fn, faults, strict):
        monitor = RunMonitor(strict=strict)
        with faultinject.injected(faults):
            try:
                SweepEngine(workers=2).map_points(point_fn, [0, 1], monitor)
            except PointFailureError:
                assert strict
        if faults:
            assert monitor.pool_rebuilds > 0
        assert blas_threads() == 2

    def test_last_holder_out_restores(self, blas_threads):
        first, second = single_blas_thread(), single_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)  # not the last out: still pinned
        assert blas_threads() == 1
        second.__exit__(None, None, None)
        assert blas_threads() == 2

    def test_overlapping_holders_across_threads(self, blas_threads):
        readings, errors = [], []

        def hold(delays):
            try:
                for delay in delays:
                    with single_blas_thread():
                        time.sleep(delay)
                        readings.append(blas_threads())
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)

        rng = random.Random(0)
        threads = [
            threading.Thread(
                target=hold, args=([rng.uniform(0, 1e-3) for _ in range(25)],), daemon=True
            )
            for _ in range(8)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(readings) == 8 * 25 and set(readings) == {1}
        assert blas_threads() == 2
