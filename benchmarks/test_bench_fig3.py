"""Figure 3: rank ratio of each layer and accuracy during rank clipping (LeNet).

Paper reference: with ε = 0.03 and S = 500 iterations, the rank ratios of
conv1 / conv2 / fc1 drop quickly in the first few thousand iterations and
converge to 0.25 / 0.24 / 0.07 while the accuracy stays within small
fluctuations of the baseline.

Shape to verify on the scaled-down workload: rank ratios start at 1.0, are
non-increasing, end well below 1.0, and accuracy at the end of clipping is
close to the accuracy at the start.
"""

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload


def test_figure3_rank_ratio_trace(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    series = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("figure3", workload),
        context=ExperimentContext(
            workload=workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy,
        ),
    ).result
    print()
    print(series.format_series())

    for name, ratios in series.rank_ratio.items():
        assert ratios[0] == 1.0, f"{name} should start at full rank"
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:])), name
    final = series.final_rank_ratios()
    assert any(value < 0.9 for value in final.values()), "no rank was clipped"

    accuracies = [a for a in series.accuracy if a is not None]
    assert accuracies[-1] >= accuracies[0] - 0.05, "accuracy was not retained"
