"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Make the package importable even when it has not been pip-installed.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import ArrayDataset, DataLoader, make_gaussian_blobs  # noqa: E402
from repro.models import build_mlp  # noqa: E402
from repro.nn import SGD, SoftmaxCrossEntropy, Trainer  # noqa: E402
from repro.utils import blas  # noqa: E402


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def blob_data():
    """Small, easy, normalized classification dataset (train, test)."""
    train, test = make_gaussian_blobs(
        num_classes=4, num_features=20, samples_per_class=40, separation=4.0, seed=7
    )
    mean, std = train.inputs.mean(), train.inputs.std()
    train = ArrayDataset((train.inputs - mean) / std, train.targets)
    test = ArrayDataset((test.inputs - mean) / std, test.targets)
    return train, test


@pytest.fixture
def small_mlp():
    """A small dense MLP matching the blob_data feature/class counts."""
    return build_mlp(20, [24, 16], 4, rng=3)


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


@pytest.fixture
def mlp_trainer_factory(blob_data):
    """Factory ``(network, callbacks) -> Trainer`` over the blob dataset."""
    train, test = blob_data

    def factory(network, callbacks=()):
        loader = DataLoader(train, batch_size=32, shuffle=True, rng=11)
        optimizer = SGD(network.parameters(), lr=0.05, momentum=0.9)
        return Trainer(
            network,
            SoftmaxCrossEntropy(),
            optimizer,
            loader,
            eval_data=test.arrays(),
            callbacks=list(callbacks),
            eval_interval=25,
        )

    return factory


def numerical_gradient(func, array, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of ``func`` w.r.t. ``array`` entries."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + epsilon
        plus = func()
        array[idx] = original - epsilon
        minus = func()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return grad


@pytest.fixture
def grad_checker():
    """Expose the numerical-gradient helper as a fixture."""
    return numerical_gradient
