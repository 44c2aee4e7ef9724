"""Figure result views (3, 5, 9 and the hardware-accuracy series).

* Figure 3 — rank ratio of each clipped layer and accuracy versus training
  iteration during rank clipping (LeNet).
* Figure 5 — percentage of deleted routing wires and accuracy versus training
  iteration during group connection deletion.
* Figure 9 — structurally-sparse weight matrices after deletion (per-crossbar
  block sparsity), rendered as arrays and an ASCII sketch.

The trace-producing runs live in the declarative core
(:mod:`repro.experiments.plan`, ``kind="figure3"`` / ``kind="figure5"``); this
module keeps the plain data-series objects — with their text renderings and
JSON payload round-trips, so stored artifacts rebuild the same series.
:func:`sparsity_maps` (Figure 9) is a pure post-processing function over a
deleted network and stays imperative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.group_deletion import GroupDeletionResult, matrix_values
from repro.core.groups import derive_network_groups
from repro.core.rank_clipping import RankClippingResult


# --------------------------------------------------------------------------- Figure 3
@dataclass
class Figure3Series:
    """Rank-ratio and accuracy traces recorded during rank clipping."""

    workload_name: str
    iterations: List[int]
    rank_ratio: Dict[str, List[float]]
    accuracy: List[Optional[float]]
    clipping_result: Optional[RankClippingResult] = None

    def final_rank_ratios(self) -> Dict[str, float]:
        """Rank ratio of every layer at the end of clipping."""
        return {name: series[-1] for name, series in self.rank_ratio.items() if series}

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts (drops the training trace)."""
        return {
            "workload_name": self.workload_name,
            "iterations": list(self.iterations),
            "rank_ratio": {name: list(series) for name, series in self.rank_ratio.items()},
            "accuracy": list(self.accuracy),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Figure3Series":
        """Rebuild from :meth:`to_payload` output (``clipping_result`` is lost)."""
        return cls(
            workload_name=payload["workload_name"],
            iterations=[int(i) for i in payload["iterations"]],
            rank_ratio={
                name: [float(v) for v in series]
                for name, series in payload["rank_ratio"].items()
            },
            accuracy=[None if v is None else float(v) for v in payload["accuracy"]],
        )

    def format_series(self) -> str:
        """Text rendering of the traces (one line per recorded iteration)."""
        names = sorted(self.rank_ratio)
        header = f"{'iter':>8}" + "".join(f"{name:>12}" for name in names) + f"{'accuracy':>12}"
        lines = [f"Figure 3 ({self.workload_name}): rank ratio / accuracy", header]
        for idx, iteration in enumerate(self.iterations):
            ratios = "".join(f"{self.rank_ratio[name][idx]:>12.3f}" for name in names)
            acc = self.accuracy[idx]
            acc_str = f"{acc:>12.3f}" if acc is not None else f"{'n/a':>12}"
            lines.append(f"{iteration:>8}{ratios}{acc_str}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- Figure 5
@dataclass
class Figure5Series:
    """Deleted-routing-wire and accuracy traces during group deletion.

    ``deleted_wire_fraction`` is the paper's norm-threshold estimate (which
    groups *would* be deleted right now); ``remaining_wire_fraction`` is the
    measured routing analysis of the current weights (memoized per mask
    fingerprint, so record steps pay a hash instead of a re-tiling).
    """

    workload_name: str
    iterations: List[int]
    deleted_wire_fraction: Dict[str, List[float]]
    accuracy: List[Optional[float]]
    deletion_result: Optional[GroupDeletionResult] = None
    remaining_wire_fraction: Optional[Dict[str, List[float]]] = None

    def final_deleted_fractions(self) -> Dict[str, float]:
        """Deleted-wire fraction of every matrix at the last record."""
        return {k: v[-1] for k, v in self.deleted_wire_fraction.items() if v}

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts (drops the training trace)."""
        return {
            "workload_name": self.workload_name,
            "iterations": list(self.iterations),
            "deleted_wire_fraction": {
                name: list(series) for name, series in self.deleted_wire_fraction.items()
            },
            "accuracy": list(self.accuracy),
            "remaining_wire_fraction": None
            if self.remaining_wire_fraction is None
            else {
                name: list(series)
                for name, series in self.remaining_wire_fraction.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Figure5Series":
        """Rebuild from :meth:`to_payload` output (``deletion_result`` is lost)."""
        remaining = payload.get("remaining_wire_fraction")
        return cls(
            workload_name=payload["workload_name"],
            iterations=[int(i) for i in payload["iterations"]],
            deleted_wire_fraction={
                name: [float(v) for v in series]
                for name, series in payload["deleted_wire_fraction"].items()
            },
            accuracy=[None if v is None else float(v) for v in payload["accuracy"]],
            remaining_wire_fraction=None
            if remaining is None
            else {
                name: [float(v) for v in series] for name, series in remaining.items()
            },
        )

    def format_series(self) -> str:
        """Text rendering of the traces."""
        names = sorted(self.deleted_wire_fraction)
        header = f"{'iter':>8}" + "".join(f"{name:>14}" for name in names) + f"{'accuracy':>12}"
        lines = [f"Figure 5 ({self.workload_name}): % deleted wires / accuracy", header]
        for idx, iteration in enumerate(self.iterations):
            cells = "".join(
                f"{100 * self.deleted_wire_fraction[name][idx]:>13.1f}%" for name in names
            )
            acc = self.accuracy[idx]
            acc_str = f"{acc:>12.3f}" if acc is not None else f"{'n/a':>12}"
            lines.append(f"{iteration:>8}{cells}{acc_str}")
        return "\n".join(lines)


# ------------------------------------------------------------------ Figure HW
@dataclass
class HardwareAccuracySeries:
    """Accuracy-versus-device-corner curves of a hardware-evaluated run.

    The view behind the ``figure_hw`` preset: one row per evaluated network
    (the single dense baseline, or every sweep point), one column per
    :class:`~repro.hardware.sim.HardwareConfig` corner label, cells holding
    the simulated accuracy.  Built from any result object that carries
    ``hardware`` blocks — :class:`~repro.experiments.plan.BaselineResult` or
    the sweep results — so stored artifacts rebuild the same series.
    """

    workload_name: str
    labels: List[str]
    rows: Dict[str, Dict[str, float]]

    @classmethod
    def from_result(cls, result) -> "HardwareAccuracySeries":
        """Extract the series from a hardware-evaluated result object."""
        from repro.experiments.sweeps import hardware_labels

        points = getattr(result, "points", None)
        rows: Dict[str, Dict[str, float]] = {}
        if points is None:
            hardware = getattr(result, "hardware", None) or {}
            if hardware:
                rows["baseline"] = dict(hardware)
        else:
            for point in points:
                hardware = getattr(point, "hardware", None) or {}
                if not hardware:
                    continue
                value = getattr(point, "strength", getattr(point, "tolerance", None))
                symbol = "lambda" if hasattr(point, "strength") else "eps"
                rows[f"{symbol}={value:g}"] = dict(hardware)
        return cls(
            workload_name=getattr(result, "workload_name", "?"),
            labels=hardware_labels([result] if points is None else points),
            rows=rows,
        )

    def series(self, label: str) -> List[float]:
        """Accuracy of every row at one device corner (row order)."""
        return [hardware[label] for hardware in self.rows.values() if label in hardware]

    def format_series(self) -> str:
        """Text rendering: networks as rows, device corners as columns."""
        if not self.rows:
            return f"Hardware accuracy ({self.workload_name}): no simulated corners"
        width = max(len("network"), max(len(name) for name in self.rows))
        columns = [max(10, len(label) + 2) for label in self.labels]
        header = f"{'network':<{width}}" + "".join(
            f"{label:>{column}}" for label, column in zip(self.labels, columns)
        )
        lines = [
            f"Hardware accuracy ({self.workload_name}): simulated device corners",
            header,
            "-" * len(header),
        ]
        for name, hardware in self.rows.items():
            cells = "".join(
                f"{hardware[label]:>{column}.3f}" if label in hardware else f"{'-':>{column}}"
                for label, column in zip(self.labels, columns)
            )
            lines.append(f"{name:<{width}}{cells}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- Figure 9
@dataclass(frozen=True)
class SparsityMap:
    """Structural sparsity of one crossbar matrix after deletion.

    ``mask`` marks non-zero weights; ``crossbar_density`` holds, per tile of
    the crossbar array, the fraction of non-zero cells (0.0 = the crossbar is
    empty and can be removed).
    """

    name: str
    mask: np.ndarray
    crossbar_density: np.ndarray
    tile_shape: Tuple[int, int]

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of non-zero weights in the matrix."""
        return float(self.mask.mean())

    @property
    def empty_crossbars(self) -> int:
        """Number of crossbars with no remaining connection."""
        return int(np.sum(self.crossbar_density == 0.0))

    def ascii_sketch(self, width: int = 48) -> str:
        """Coarse ASCII rendering of the sparsity pattern (for terminals)."""
        rows, cols = self.mask.shape
        out_rows = max(1, min(16, rows))
        out_cols = max(1, min(width, cols))
        sketch_lines = []
        for r in range(out_rows):
            row_slice = slice(r * rows // out_rows, max(r * rows // out_rows + 1, (r + 1) * rows // out_rows))
            chars = []
            for c in range(out_cols):
                col_slice = slice(
                    c * cols // out_cols, max(c * cols // out_cols + 1, (c + 1) * cols // out_cols)
                )
                density = float(self.mask[row_slice, col_slice].mean())
                chars.append(" " if density == 0 else ("." if density < 0.5 else "#"))
            sketch_lines.append("".join(chars))
        return "\n".join(sketch_lines)


def sparsity_maps(
    network, *, layers=None, include_small_matrices: bool = False, zero_threshold: float = 0.0
) -> List[SparsityMap]:
    """Figure 9: block-sparsity maps of the (deleted) crossbar matrices."""
    grouped = derive_network_groups(
        network, layers=layers, include_small_matrices=include_small_matrices
    )
    maps: List[SparsityMap] = []
    for matrix in grouped:
        values = matrix_values(matrix)
        mask = np.abs(values) > zero_threshold
        plan = matrix.plan
        density = np.zeros((plan.grid_rows, plan.grid_cols))
        for tile_row, tile_col, row_slice, col_slice in plan.iter_tiles():
            density[tile_row, tile_col] = float(mask[row_slice, col_slice].mean())
        maps.append(
            SparsityMap(
                name=matrix.name,
                mask=mask,
                crossbar_density=density,
                tile_shape=plan.tile_shape(),
            )
        )
    return maps
