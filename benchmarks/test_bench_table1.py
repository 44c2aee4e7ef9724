"""Table 1: accuracy and ranks for Original / Direct LRA / Rank clipping.

Paper reference (full-scale MNIST / CIFAR-10):

================  =========  =====================================
network           accuracy   ranks (conv1, conv2, [conv3,] fc1)
================  =========  =====================================
LeNet Original      99.15 %  20, 50, 500
LeNet Direct LRA    96.44 %  5, 12, 36
LeNet Clipping      99.14 %  5, 12, 36
ConvNet Original    82.01 %  32, 32, 64
ConvNet Direct      43.29 %  12, 19, 22
ConvNet Clipping    82.09 %  12, 19, 22
================  =========  =====================================

The benchmark regenerates the same three rows on the scaled-down synthetic
workloads.  The *shape* to verify: rank clipping reduces ranks substantially,
Direct LRA at those ranks loses accuracy, and rank clipping recovers to
(approximately) the original accuracy.
"""

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload


def _check_shape(result, workload):
    original = result.row("Original")
    direct = result.row("Direct LRA")
    clipped = result.row("Rank clipping")
    full_ranks = {name: min(workload.layer_shapes[name]) for name in workload.clippable_layers}
    # Ranks are reduced in at least one layer.
    assert any(clipped.ranks[n] < full_ranks[n] for n in clipped.ranks)
    # Rank clipping tracks the original accuracy much better than Direct LRA
    # does (or at least as well), and stays within a few points of it.
    assert clipped.accuracy >= direct.accuracy - 1e-9
    assert clipped.accuracy >= original.accuracy - 0.05


def test_table1_lenet(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    result = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("table1", workload),
        context=ExperimentContext(
            workload=workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy,
        ),
    ).result
    print()
    print(result.format_table())
    _check_shape(result, workload)


def test_table1_convnet(benchmark, convnet_baseline):
    workload, network, accuracy, setup = convnet_baseline
    result = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("table1", workload),
        context=ExperimentContext(
            workload=workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy,
        ),
    ).result
    print()
    print(result.format_table())
    _check_shape(result, workload)
