"""Table 3 result view.

Table 3 reports, per big crossbar matrix, the MBC tile size selected by the
library and the percentage of routing wires that survive group connection
deletion, plus the layer-wise average wire and routing-area fractions the
paper quotes (8.1 % / 52.06 %).  The full pipeline (rank clipping on the
trained baseline, then deletion on the big matrices) lives in the
declarative core (:mod:`repro.experiments.plan`, ``kind="table3"``); this
module keeps the result dataclasses with their rendering and JSON payload
round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.group_deletion import GroupDeletionResult
from repro.core.rank_clipping import RankClippingResult


@dataclass(frozen=True)
class Table3Row:
    """One big crossbar matrix: its tile size and surviving routing wires."""

    matrix: str
    matrix_shape: Tuple[int, int]
    tile_shape: Tuple[int, int]
    num_crossbars: int
    wire_fraction: float

    @property
    def wire_percent(self) -> float:
        """Remaining wires in percent (the paper's "% wires" row)."""
        return 100.0 * self.wire_fraction


@dataclass
class Table3Result:
    """Full Table 3 for one workload."""

    workload_name: str
    rows: List[Table3Row] = field(default_factory=list)
    clipping_result: Optional[RankClippingResult] = None
    deletion_result: Optional[GroupDeletionResult] = None
    baseline_accuracy: Optional[float] = None
    final_accuracy: Optional[float] = None

    def row(self, matrix: str) -> Table3Row:
        """Return the row of a given matrix name (e.g. ``"fc1_u"``)."""
        for row in self.rows:
            if row.matrix == matrix:
                return row
        raise KeyError(f"no row for matrix {matrix!r}")

    def mean_wire_fraction(self) -> float:
        """Average remaining-wire fraction across the big matrices."""
        if not self.rows:
            return 1.0
        return float(np.mean([row.wire_fraction for row in self.rows]))

    def mean_routing_area_fraction(self) -> float:
        """Average remaining routing-area fraction (square of wire fractions)."""
        if not self.rows:
            return 1.0
        return float(np.mean([row.wire_fraction**2 for row in self.rows]))

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts (drops the training traces)."""
        return {
            "workload_name": self.workload_name,
            "baseline_accuracy": self.baseline_accuracy,
            "final_accuracy": self.final_accuracy,
            "rows": [
                {
                    "matrix": row.matrix,
                    "matrix_shape": list(row.matrix_shape),
                    "tile_shape": list(row.tile_shape),
                    "num_crossbars": row.num_crossbars,
                    "wire_fraction": row.wire_fraction,
                }
                for row in self.rows
            ],
            "mean_wire_fraction": self.mean_wire_fraction(),
            "mean_routing_area_fraction": self.mean_routing_area_fraction(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Table3Result":
        """Rebuild from :meth:`to_payload` output (training traces are lost)."""
        return cls(
            workload_name=payload["workload_name"],
            baseline_accuracy=payload.get("baseline_accuracy"),
            final_accuracy=payload.get("final_accuracy"),
            rows=[
                Table3Row(
                    matrix=row["matrix"],
                    matrix_shape=tuple(row["matrix_shape"]),
                    tile_shape=tuple(row["tile_shape"]),
                    num_crossbars=int(row["num_crossbars"]),
                    wire_fraction=float(row["wire_fraction"]),
                )
                for row in payload.get("rows", [])
            ],
        )

    def format_table(self) -> str:
        """Render the table in the paper's layout."""
        header = f"{'matrix':<14}{'shape':<12}{'MBC size':<12}{'xbars':>6}{'% wires':>10}"
        lines = [f"Table 3 ({self.workload_name})", header, "-" * len(header)]
        for row in self.rows:
            shape = f"{row.matrix_shape[0]}x{row.matrix_shape[1]}"
            tile = f"{row.tile_shape[0]}x{row.tile_shape[1]}"
            lines.append(
                f"{row.matrix:<14}{shape:<12}{tile:<12}{row.num_crossbars:>6}"
                f"{row.wire_percent:>9.1f}%"
            )
        lines.append("-" * len(header))
        lines.append(
            f"mean wire fraction: {self.mean_wire_fraction():.2%}; "
            f"mean routing area: {self.mean_routing_area_fraction():.2%}"
        )
        if self.baseline_accuracy is not None and self.final_accuracy is not None:
            lines.append(
                f"accuracy: baseline {self.baseline_accuracy:.2%} -> final "
                f"{self.final_accuracy:.2%}"
            )
        return "\n".join(lines)
