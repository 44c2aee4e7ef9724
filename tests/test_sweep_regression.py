"""Regression test: sweeps must never mutate the shared baseline network.

Seed bug: the λ group-deletion sweep converted the baseline network to low
rank without deep-copying first (unlike the ε sweep), so reusing the
baseline across sweeps silently started later sweeps from a mutated network.
"""

import copy

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    execute_spec,
    mlp_workload,
    spec_for_workload,
    train_baseline,
)


@pytest.fixture(scope="module")
def trained_baseline():
    workload = mlp_workload("tiny")
    network, accuracy, setup = train_baseline(workload)
    return workload, network, accuracy, setup


def run_lambda_sweep(workload, strengths, *, setup, baseline_network):
    """A λ sweep spec executed on a shared pre-trained baseline."""
    spec = spec_for_workload(
        "sweep", workload, method="group_deletion", grid=tuple(strengths)
    )
    context = ExperimentContext(
        workload=workload, setup=setup, baseline_network=baseline_network
    )
    return execute_spec(spec, context=context).result


def snapshot(network):
    """Bit-exact snapshot of every parameter value, gradient and mask."""
    state = {}
    for name, param in network.named_parameters():
        state[name] = (
            param.data.copy(),
            param.grad.copy(),
            None if param.mask is None else param.mask.copy(),
        )
    return state


def assert_identical(network, state):
    current = snapshot(network)
    assert sorted(current) == sorted(state)
    for name, (data, grad, mask) in state.items():
        cur_data, cur_grad, cur_mask = current[name]
        assert np.array_equal(cur_data, data), f"{name}: data mutated"
        assert np.array_equal(cur_grad, grad), f"{name}: grad mutated"
        if mask is None:
            assert cur_mask is None, f"{name}: mask appeared"
        else:
            assert np.array_equal(cur_mask, mask), f"{name}: mask mutated"


def test_sweep_group_deletion_leaves_baseline_bit_identical(trained_baseline):
    workload, network, accuracy, setup = trained_baseline
    before = snapshot(network)
    structure_before = [(layer.name, type(layer)) for layer in network]
    result = run_lambda_sweep(
        workload,
        strengths=[0.05],
        setup=setup,
        baseline_network=network,
    )
    assert result.points  # the sweep itself ran
    assert [(layer.name, type(layer)) for layer in network] == structure_before
    assert_identical(network, before)


def test_baseline_reusable_across_repeated_sweeps(trained_baseline):
    """Two identical sweeps from one baseline produce identical results."""
    workload, network, accuracy, setup = trained_baseline
    first = run_lambda_sweep(
        workload, strengths=[0.05], setup=setup, baseline_network=network
    )
    second = run_lambda_sweep(
        workload, strengths=[0.05], setup=setup, baseline_network=network
    )
    assert first.points[0].wire_fractions == second.points[0].wire_fractions
    assert first.points[0].accuracy == pytest.approx(second.points[0].accuracy)
