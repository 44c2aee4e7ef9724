#!/usr/bin/env python
"""LeNet on (synthetic) MNIST: regenerate the paper's LeNet experiments.

This is the workload behind Table 1, Table 3, Figure 3 and Figure 5 of the
paper.  The script:

1. trains a scaled-down LeNet baseline on the synthetic MNIST substitute,
2. runs rank clipping and prints the Table 1 rows (Original / Direct LRA /
   Rank clipping) plus the Figure 3 rank-ratio trace,
3. runs group connection deletion and prints the Table 3 rows (MBC sizes and
   remaining routing wires) plus the Figure 5 deletion trace,
4. prints the resulting crossbar-area and routing-area savings.

Run with:           python examples/lenet_mnist_scissor.py
Full paper scale:   python examples/lenet_mnist_scissor.py --scale paper
(The paper scale trains the real 20/50/500 LeNet for tens of thousands of
iterations on this numpy substrate — expect hours.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import (
    ExperimentContext,
    execute_spec,
    lenet_workload,
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
    args = parser.parse_args()

    workload = lenet_workload(args.scale)
    print(f"=== Training the dense LeNet baseline ({args.scale} scale) ===")
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
    print("\n=== Rank clipping (Table 1) ===")
    table1 = run("table1")
    print(table1.format_table())
    ranks = table1.row("Rank clipping").ranks
    area = network_area_fraction(
        workload.layer_shapes, {name: ranks.get(name) for name in workload.layer_shapes}
    )
    print(f"total crossbar area after clipping: {area:.2%} of the dense design")

    # ----------------------------------------------------------- Figure 3
    print("\n=== Rank-ratio trace during clipping (Figure 3) ===")
    figure3 = run("figure3")
    print(figure3.format_series())

    # ------------------------------------------------------------ Table 3
    print("\n=== Group connection deletion (Table 3) ===")
    table3 = run("table3", strength=args.strength, include_small_matrices=True)
    print(table3.format_table())

    # ----------------------------------------------------------- Figure 5
    print("\n=== Deleted-wire trace during deletion (Figure 5) ===")
    figure5 = run("figure5", strength=args.strength, include_small_matrices=True)
    print(figure5.format_series())

    print("\nSummary")
    print(f"  crossbar area after rank clipping:  {area:.2%}")
    print(f"  mean remaining routing wires:       {table3.mean_wire_fraction():.2%}")
    print(f"  mean remaining routing area:        {table3.mean_routing_area_fraction():.2%}")
    print(f"  final accuracy:                     {table3.final_accuracy:.2%}")


if __name__ == "__main__":
    main()
