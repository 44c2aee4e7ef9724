#!/usr/bin/env python
"""Hardware-model walkthrough: area analysis and device-level accuracy.

Demonstrates both layers of the crossbar hardware model through the
declarative experiment API (spec → plan → run → artifact):

1. the **analytical layer** — headline area numbers in closed form via the
   ``headline`` registry preset, MBC tile selection for the Table 3
   matrices, and a full mapping of the paper-size LeNet/ConvNet topologies;
2. the **device layer** — simulated inference accuracy of a trained network
   under finite write precision and analog noise, first hands-on with
   :func:`repro.hardware.simulate_evaluate`, then end-to-end through the
   ``figure_hw`` / ``figure_hw_baseline`` presets and
   :func:`repro.experiments.execute_spec`.

Everything trained runs at the ``tiny`` scale so the whole script finishes
in seconds.  Run with:

    python examples/hardware_area_report.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import convert_to_lowrank
from repro.experiments import (
    REGISTRY,
    HardwareAccuracySeries,
    execute_spec,
    lenet_workload,
    train_baseline,
)
from repro.hardware import (
    HardwareConfig,
    NetworkMapper,
    plan_tiling,
    simulate_evaluate,
)
from repro.models import (
    PAPER_CONVNET_RANKS,
    PAPER_LENET_RANKS,
    ConvNetConfig,
    LeNetConfig,
    build_convnet,
    build_lenet,
)


def headline_numbers() -> None:
    """The paper's abstract numbers, through the registry + executor."""
    print("=== Headline numbers recomputed through the hardware model ===")
    run = execute_spec(REGISTRY.get("headline"))
    print(run.result.format_table())


def tiling_examples() -> None:
    """MBC size selection for the big LeNet matrices (Table 3)."""
    print("\n=== MBC size selection for the big LeNet matrices (Table 3) ===")
    for name, (rows, cols) in {
        "fc1_u (U: 500x36)": (500, 36),
        "fc1_v (Vt: 36x800)": (36, 800),
        "fc2   (Wt: 500x10)": (500, 10),
    }.items():
        plan = plan_tiling(rows, cols, name=name)
        print(
            f"  {name:<20} tiles of {plan.tile_rows}x{plan.tile_cols}  "
            f"({plan.grid_rows}x{plan.grid_cols} = {plan.num_crossbars} crossbars, "
            f"{plan.dense_wire_count()} routing wires)"
        )


def full_network_mapping() -> None:
    """Map the paper-size topologies onto 64x64 crossbars."""
    print("\n=== Mapping the full-size networks onto 64x64 crossbars ===")
    mapper = NetworkMapper()
    for builder, config, ranks, label in (
        (build_lenet, LeNetConfig.paper(), PAPER_LENET_RANKS, "LeNet"),
        (build_convnet, ConvNetConfig.paper(), PAPER_CONVNET_RANKS, "ConvNet"),
    ):
        dense = builder(config, rng=0)
        clipped = convert_to_lowrank(dense, ranks=ranks)
        dense_report = mapper.map_network(dense)
        clipped_report = mapper.map_network(clipped)
        fraction = clipped_report.area_fraction_of(dense_report)
        print(
            f"  {label}: dense {dense_report.total_crossbar_area_f2:,.0f} F^2 on "
            f"{dense_report.total_crossbars} crossbars -> clipped "
            f"{clipped_report.total_crossbar_area_f2:,.0f} F^2 on "
            f"{clipped_report.total_crossbars} crossbars ({fraction:.2%})"
        )


def accuracy_versus_noise() -> None:
    """Device-level accuracy of one trained network across a noise ramp."""
    print("\n=== Device-level accuracy vs programming noise (tiny LeNet) ===")
    workload = lenet_workload("tiny")
    network, software_accuracy, setup = train_baseline(workload)
    inputs, targets = setup.test_dataset.arrays()
    print(f"  software accuracy: {software_accuracy:.2%}")
    corners = [
        HardwareConfig(bits=6, program_noise=noise, adc_bits=8)
        for noise in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)
    ] + [HardwareConfig(bits=bits) for bits in (2, 3, 4, 8)]
    # One call scores every corner in one pass over the test split.
    scores = simulate_evaluate(network, inputs, targets, corners)
    print(f"  {'corner':<18}{'accuracy':>10}")
    for label, accuracy in scores.items():
        print(f"  {label:<18}{accuracy:>10.2%}")


def figure_hw_pipeline() -> None:
    """The same evaluation as a resumable spec run: figure_hw vs baseline."""
    print("\n=== figure_hw through the spec pipeline (tiny scale, no store) ===")
    compressed = execute_spec(REGISTRY.get("figure_hw", scale="tiny"))
    baseline = execute_spec(REGISTRY.get("figure_hw_baseline", scale="tiny"))
    print(HardwareAccuracySeries.from_result(baseline.result).format_series())
    print()
    print(HardwareAccuracySeries.from_result(compressed.result).format_series())
    print(
        "\n(With a store attached — `python -m repro run figure_hw --scale tiny` —\n"
        " these runs persist as artifacts, resume with zero recomputation, and\n"
        " `python -m repro compare figure_hw_baseline figure_hw` renders the\n"
        " per-corner accuracy deltas.)"
    )


def main() -> None:
    headline_numbers()
    tiling_examples()
    full_network_mapping()
    accuracy_versus_noise()
    figure_hw_pipeline()


if __name__ == "__main__":
    main()
