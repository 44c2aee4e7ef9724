#!/usr/bin/env python
"""ConvNet on (synthetic) CIFAR-10: the paper's "more challenging" workload.

Regenerates the ConvNet side of the evaluation: Table 1 (rank clipping),
Table 3 (group connection deletion), and the Figure 8 sweep of routing
wires/area versus classification error over the group-Lasso strength λ.
Also prints the Figure 9 structural-sparsity sketches of the deleted
matrices.

Run with:           python examples/convnet_cifar_scissor.py
Full paper scale:   python examples/convnet_cifar_scissor.py --scale paper
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import (
    ExperimentContext,
    convnet_workload,
    execute_spec,
    sparsity_maps,
    spec_for_workload,
    train_baseline,
)
from repro.hardware import network_area_fraction


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="small",
        choices=["tiny", "small", "paper"],
        help="experiment scale preset (default: small)",
    )
    parser.add_argument("--tolerance", type=float, default=0.03, help="clipping error ε")
    parser.add_argument("--strength", type=float, default=0.04, help="group-Lasso λ")
    parser.add_argument(
        "--sweep",
        type=float,
        nargs="+",
        default=[0.01, 0.03, 0.06],
        help="λ values for the Figure 8 sweep",
    )
    args = parser.parse_args()

    workload = convnet_workload(args.scale)
    print(f"=== Training the dense ConvNet baseline ({args.scale} scale) ===")
    network, accuracy, setup = train_baseline(workload)
    print(f"baseline accuracy: {accuracy:.2%}")
    # Every deliverable below starts from this one trained baseline.
    context = ExperimentContext(
        workload=workload,
        setup=setup,
        baseline_network=network,
        baseline_accuracy=accuracy,
    )

    def run(kind, **fields):
        spec = spec_for_workload(kind, workload, tolerance=args.tolerance, **fields)
        return execute_spec(spec, context=context).result

    # ------------------------------------------------------------ Table 1
    print("\n=== Rank clipping (Table 1, ConvNet rows) ===")
    table1 = run("table1")
    print(table1.format_table())
    ranks = table1.row("Rank clipping").ranks
    area = network_area_fraction(
        workload.layer_shapes, {name: ranks.get(name) for name in workload.layer_shapes}
    )
    print(f"total crossbar area after clipping: {area:.2%} of the dense design")

    # ------------------------------------------------------------ Table 3
    print("\n=== Group connection deletion (Table 3, ConvNet rows) ===")
    table3 = run("table3", strength=args.strength, include_small_matrices=True)
    print(table3.format_table())

    # ----------------------------------------------------------- Figure 9
    print("\n=== Structural sparsity after deletion (Figure 9) ===")
    for sparsity in sparsity_maps(table3.deletion_result.network, include_small_matrices=True):
        print(
            f"\n{sparsity.name}: nonzero {sparsity.nonzero_fraction:.1%}, "
            f"empty crossbars {sparsity.empty_crossbars}/{sparsity.crossbar_density.size}"
        )
        print(sparsity.ascii_sketch())

    # ----------------------------------------------------------- Figure 8
    print("\n=== Routing wires / area vs classification error (Figure 8) ===")
    sweep = run(
        "sweep",
        method="group_deletion",
        grid=tuple(args.sweep),
        include_small_matrices=True,
    )
    print(sweep.format_table())


if __name__ == "__main__":
    main()
