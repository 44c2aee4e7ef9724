"""Crossbar-aware weight groups (paper Figure 4).

Group connection deletion needs every weight of the network assigned to a
*row group* and a *column group* defined by the crossbar tiling:

* a **row group** is the set of weights of one crossbar input row inside one
  tile — if the whole group is zero, the routing wire feeding that crossbar
  input can be deleted;
* a **column group** is the set of weights of one crossbar output column
  inside one tile — if the whole group is zero, the routing wire collecting
  that crossbar output can be deleted.

The crossbar matrices are oriented inputs × outputs (see
:mod:`repro.hardware.mapper`).  The ``v`` factor of a low-rank layer is
stored in that orientation already; the ``u`` factor and dense weights are
stored transposed, so their group indices are transposed accordingly — the
``transpose`` argument below handles this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hardware.library import PAPER_LIBRARY, CrossbarLibrary
from repro.hardware.tiling import TilingPlan, plan_tiling
from repro.nn.layers import Conv2D, Linear, LowRankConv2D, LowRankLinear
from repro.nn.network import Sequential
from repro.nn.parameter import Parameter
from repro.nn.regularization import LockstepRegularizer, Regularizer, WeightGroup
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class GroupedMatrix:
    """One crossbar matrix together with its tiling plan and weight groups.

    Attributes
    ----------
    name:
        Matrix name (``"<layer>_u"``, ``"<layer>_v"`` or ``"<layer>_w"``).
    layer_name:
        Owning layer.
    parameter:
        The parameter the matrix lives in.
    transpose:
        ``True`` when the crossbar matrix is the transpose of the parameter
        array (``u`` factors and dense weights).
    plan:
        Crossbar tiling of the matrix.
    groups:
        All row and column groups of the matrix.
    """

    name: str
    layer_name: str
    parameter: Parameter
    transpose: bool
    plan: TilingPlan
    groups: Tuple[WeightGroup, ...]

    def row_groups(self) -> List[WeightGroup]:
        """Only the row (input-wire) groups."""
        return [g for g in self.groups if g.kind == "row"]

    def column_groups(self) -> List[WeightGroup]:
        """Only the column (output-wire) groups."""
        return [g for g in self.groups if g.kind == "column"]

    def values(self) -> np.ndarray:
        """Current crossbar-matrix values (inputs × outputs orientation)."""
        data = self.parameter.data
        return data.T if self.transpose else data


def matrix_group_norms(
    values: np.ndarray, plan: TilingPlan
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """L2 norms of every row group and column group of a tiled matrix.

    Returns ``(row_norms, col_norms)`` with shapes
    ``(grid_rows, tile_rows, grid_cols)`` and ``(grid_rows, grid_cols,
    tile_cols)`` — one entry per routing wire — computed in two vectorized
    reductions over the block view instead of one Python-level
    ``np.linalg.norm`` call per group.  Returns ``None`` when the plan is
    padded (ragged edge tiles have no rectangular block view; callers fall
    back to the per-group loop).
    """
    blocks = plan.block_view(np.asarray(values))
    if blocks is None:
        return None
    squared = blocks * blocks
    return np.sqrt(squared.sum(axis=3)), np.sqrt(squared.sum(axis=1))


class CrossbarGroupLasso(Regularizer):
    """Vectorized group-Lasso over the row/column groups of tiled matrices.

    Numerically this is the same objective as wrapping the flattened
    :class:`~repro.nn.regularization.WeightGroup` list in a
    :class:`~repro.nn.regularization.GroupLassoRegularizer` — every weight
    belongs to exactly one row group and one column group, so its penalty
    gradient is ``λ·w·(1/max(‖row‖, eps) + 1/max(‖col‖, eps))`` — but the
    norms and gradients of a whole matrix are computed with a handful of
    array reductions instead of two Python loop iterations per group.
    Matrices with padded tiling plans keep the per-group formulation.
    """

    def __init__(
        self,
        grouped_matrices: Sequence["GroupedMatrix"],
        strength: float,
        *,
        eps: float = 1e-12,
    ):
        self.strength = check_non_negative(strength, "strength")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self._matrices: List[GroupedMatrix] = []
        self._fallback_groups: List[WeightGroup] = []
        for matrix in grouped_matrices:
            if matrix.plan.padded:
                self._fallback_groups.extend(matrix.groups)
            else:
                self._matrices.append(matrix)
        # Blocks + norms computed by the latest penalty() call, consumed (and
        # invalidated) by the next apply_gradients().  The trainer calls the
        # two back to back each step with no weight update in between, so the
        # shared computation halves the per-iteration regularizer cost; any
        # standalone apply_gradients() call recomputes from scratch.
        self._norms_cache: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = None

    def _block_norms(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        entries = []
        for matrix in self._matrices:
            blocks = matrix.plan.block_view(matrix.values())
            squared = blocks * blocks
            entries.append(
                (blocks, np.sqrt(squared.sum(axis=3)), np.sqrt(squared.sum(axis=1)))
            )
        return entries

    def penalty(self) -> float:
        if self.strength == 0.0:
            return 0.0
        entries = self._block_norms()
        self._norms_cache = entries
        total = 0.0
        for _, row_norms, col_norms in entries:
            total += float(row_norms.sum()) + float(col_norms.sum())
        total += sum(group.norm() for group in self._fallback_groups)
        return self.strength * total

    def apply_gradients(self) -> None:
        if self.strength == 0.0:
            return
        entries = self._norms_cache if self._norms_cache is not None else self._block_norms()
        self._norms_cache = None
        for matrix, (blocks, row_norms, col_norms) in zip(self._matrices, entries):
            plan = matrix.plan
            coef = (
                1.0 / np.maximum(row_norms, self.eps)[:, :, :, None]
                + 1.0 / np.maximum(col_norms, self.eps)[:, None, :, :]
            )
            grad = (self.strength * blocks * coef).reshape(
                plan.matrix_rows, plan.matrix_cols
            )
            matrix.parameter.grad += grad.T if matrix.transpose else grad
        for group in self._fallback_groups:
            values = group.values()
            norm = np.linalg.norm(values)
            group.parameter.grad[group.index] += (
                self.strength * values / max(norm, self.eps)
            )


class LockstepCrossbarGroupLasso(LockstepRegularizer):
    """Crossbar group Lasso over the ``(K, rows, cols)`` slabs of a stack.

    The lockstep counterpart of :class:`CrossbarGroupLasso`: the K sweep
    points of one stack share one architecture, hence the same tiling plans,
    so the row/column group norms of all K points are computed with one set
    of 5-D block reductions over the parameter slabs, and the penalty gradient
    — with one λ per point — is written back into the gradient slabs in a
    single broadcast multiply-add per matrix.  Row ``k`` of every reduction
    ranges over exactly the elements (in the same order) as the serial
    regularizer for point ``k``, so per-point penalties and gradients are
    bit-identical to K :class:`CrossbarGroupLasso` instances.

    Padded tiling plans keep the serial per-group formulation, and a λ grid
    containing a zero strength drops the whole stack to cached per-point
    serial regularizers (a zero-strength serial regularizer contributes
    nothing at all, which a slab-wide multiply by ``0.0`` would not exactly
    replicate for negative-zero gradients).

    Parameters
    ----------
    stack:
        The :class:`~repro.nn.batched.NetworkStack` the points ride; used to
        resolve each point's parameters to their slabs.
    grouped_per_point:
        One :func:`derive_network_groups` result per point, in stack order.
    strengths:
        One λ per point.
    """

    def __init__(
        self,
        stack,
        grouped_per_point: Sequence[Sequence["GroupedMatrix"]],
        strengths: Sequence[float],
        *,
        eps: float = 1e-12,
    ):
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self.stack = stack
        self._grouped: List[List[GroupedMatrix]] = [list(g) for g in grouped_per_point]
        self.strengths: List[float] = [
            check_non_negative(float(s), "strength") for s in strengths
        ]
        if len(self._grouped) != len(self.strengths):
            raise ConfigurationError(
                f"{len(self._grouped)} grouped-matrix lists but "
                f"{len(self.strengths)} strengths"
            )
        if len(self._grouped) != stack.num_points:
            raise ConfigurationError(
                f"{len(self._grouped)} points but the stack holds {stack.num_points}"
            )
        counts = {len(g) for g in self._grouped}
        if len(counts) != 1:
            raise ConfigurationError(
                "all points must penalize the same matrices (identical "
                "architectures yield identical groupings)"
            )
        for position in range(counts.pop()):
            plans = {
                (m.name, m.transpose, m.plan.matrix_rows, m.plan.matrix_cols,
                 m.plan.tile_rows, m.plan.tile_cols, m.plan.padded)
                for m in (g[position] for g in self._grouped)
            }
            if len(plans) != 1:
                raise ConfigurationError(
                    f"matrix position {position} differs across points: {sorted(plans)}"
                )
        self._vector_positions = [
            j for j, m in enumerate(self._grouped[0]) if not m.plan.padded
        ]
        self._fallback_positions = [
            j for j, m in enumerate(self._grouped[0]) if m.plan.padded
        ]
        self._norms_cache = None
        self._serial_regs: Optional[List[CrossbarGroupLasso]] = None
        # position -> (values, grads) slab views; the slabs are updated in
        # place, so the views stay live across steps.
        self._slab_views: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ plumbing
    @property
    def num_points(self) -> int:
        """Number of points this regularizer penalizes."""
        return len(self._grouped)

    def _slabs(self, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, grads)`` slabs of one matrix, crossbar-oriented ``(K, rows, cols)``."""
        cached = self._slab_views.get(position)
        if cached is not None:
            return cached
        matrix0 = self._grouped[0][position]
        slab, slot = self.stack.slab_pair(matrix0.parameter)
        if slot != 0:
            raise ConfigurationError("grouped_per_point must follow stack order")
        for k, grouped in enumerate(self._grouped):
            other, other_slot = self.stack.slab_pair(grouped[position].parameter)
            if other is not slab or other_slot != k:
                raise ConfigurationError(
                    "grouped matrices are not aligned with the stack's slabs"
                )
        if matrix0.transpose:
            views = slab.data.transpose(0, 2, 1), slab.grad.transpose(0, 2, 1)
        else:
            views = slab.data, slab.grad
        self._slab_views[position] = views
        return views

    def _all_positive(self) -> bool:
        return all(s > 0.0 for s in self.strengths)

    def _serial_regularizers(self) -> List[CrossbarGroupLasso]:
        # Cached: the serial regularizers read/write through the per-point
        # Parameters (slab views), so the same instances stay valid across
        # steps — and each instance's own norms cache then links its
        # penalty() to the following apply_gradients(), like the serial
        # trainer's call pattern.
        if self._serial_regs is None:
            self._serial_regs = [
                CrossbarGroupLasso(grouped, strength, eps=self.eps)
                for grouped, strength in zip(self._grouped, self.strengths)
            ]
        return self._serial_regs

    # ---------------------------------------------------------- evaluation
    def _block_norms(self):
        entries = []
        for position in self._vector_positions:
            plan = self._grouped[0][position].plan
            values, _ = self._slabs(position)
            blocks = values.reshape(
                self.num_points,
                plan.grid_rows,
                plan.tile_rows,
                plan.grid_cols,
                plan.tile_cols,
            )
            squared = blocks * blocks
            entries.append(
                (
                    position,
                    blocks,
                    np.sqrt(squared.sum(axis=4)),  # (K, gr, tr, gc) row norms
                    np.sqrt(squared.sum(axis=2)),  # (K, gr, gc, tc) col norms
                )
            )
        return entries

    def penalties(self) -> np.ndarray:
        k = self.num_points
        if not self._all_positive():
            return np.array([reg.penalty() for reg in self._serial_regularizers()])
        entries = self._block_norms()
        self._norms_cache = entries
        totals = np.zeros(k)
        for _, _, row_norms, col_norms in entries:
            # One accumulate per matrix, like the serial regularizer, so the
            # float summation order matches per point.
            totals += (
                row_norms.reshape(k, -1).sum(axis=1)
                + col_norms.reshape(k, -1).sum(axis=1)
            )
        for slot, grouped in enumerate(self._grouped):
            if self._fallback_positions:
                # One flat sum across all padded matrices' groups, mirroring
                # the serial regularizer's accumulation order.
                totals[slot] += sum(
                    group.norm()
                    for position in self._fallback_positions
                    for group in grouped[position].groups
                )
        return np.asarray(self.strengths) * totals

    def apply_gradients(self) -> None:
        if not self._all_positive():
            for reg in self._serial_regularizers():
                reg.apply_gradients()
            return
        entries = self._norms_cache if self._norms_cache is not None else self._block_norms()
        self._norms_cache = None
        k = self.num_points
        strengths = np.asarray(self.strengths).reshape(k, 1, 1, 1, 1)
        for position, blocks, row_norms, col_norms in entries:
            plan = self._grouped[0][position].plan
            # The norms are this call's private arrays (consumed from the
            # cache), so the clamped reciprocals can reuse their buffers.
            row_inv = np.maximum(row_norms, self.eps, out=row_norms)
            np.divide(1.0, row_inv, out=row_inv)
            col_inv = np.maximum(col_norms, self.eps, out=col_norms)
            np.divide(1.0, col_inv, out=col_inv)
            coef = row_inv[:, :, :, :, None] + col_inv[:, :, None, :, :]
            grad = strengths * blocks
            grad *= coef
            _, grad_slab = self._slabs(position)
            grad_slab += grad.reshape(k, plan.matrix_rows, plan.matrix_cols)
        for slot, grouped in enumerate(self._grouped):
            strength = self.strengths[slot]
            for position in self._fallback_positions:
                for group in grouped[position].groups:
                    values = group.values()
                    norm = np.linalg.norm(values)
                    group.parameter.grad[group.index] += (
                        strength * values / max(norm, self.eps)
                    )


def _matrix_shape(parameter: Parameter, transpose: bool) -> Tuple[int, int]:
    rows, cols = parameter.data.shape
    return (cols, rows) if transpose else (rows, cols)


def _group_index(transpose: bool, row_sel, col_sel):
    """Translate a crossbar-matrix index into a parameter-array index."""
    return (col_sel, row_sel) if transpose else (row_sel, col_sel)


def derive_matrix_groups(
    parameter: Parameter,
    *,
    name: str,
    layer_name: str,
    transpose: bool,
    library: CrossbarLibrary = PAPER_LIBRARY,
) -> GroupedMatrix:
    """Tile one crossbar matrix and enumerate its row/column weight groups."""
    if parameter.data.ndim != 2:
        raise ConfigurationError(
            f"matrix {name!r} must be 2-D, got shape {parameter.data.shape}"
        )
    rows, cols = _matrix_shape(parameter, transpose)
    plan = plan_tiling(rows, cols, library=library, name=name)
    groups: List[WeightGroup] = []
    for tile_row, tile_col, row_slice, col_slice in plan.iter_tiles():
        tile_tag = f"{name}/tile{tile_row}_{tile_col}"
        for r in range(row_slice.start, row_slice.stop):
            groups.append(
                WeightGroup(
                    parameter=parameter,
                    index=_group_index(transpose, r, col_slice),
                    label=f"{tile_tag}/row{r}",
                    kind="row",
                )
            )
        for c in range(col_slice.start, col_slice.stop):
            groups.append(
                WeightGroup(
                    parameter=parameter,
                    index=_group_index(transpose, row_slice, c),
                    label=f"{tile_tag}/col{c}",
                    kind="column",
                )
            )
    return GroupedMatrix(
        name=name,
        layer_name=layer_name,
        parameter=parameter,
        transpose=transpose,
        plan=plan,
        groups=tuple(groups),
    )


def derive_layer_grouped_matrices(
    layer, *, library: CrossbarLibrary = PAPER_LIBRARY
) -> List[GroupedMatrix]:
    """Grouped crossbar matrices of one weighted layer (1 dense or 2 factors)."""
    if isinstance(layer, (LowRankLinear, LowRankConv2D)):
        return [
            derive_matrix_groups(
                layer.v,
                name=f"{layer.name}_v",
                layer_name=layer.name,
                transpose=False,
                library=library,
            ),
            derive_matrix_groups(
                layer.u,
                name=f"{layer.name}_u",
                layer_name=layer.name,
                transpose=True,
                library=library,
            ),
        ]
    if isinstance(layer, Linear):
        return [
            derive_matrix_groups(
                layer.weight,
                name=f"{layer.name}_w",
                layer_name=layer.name,
                transpose=True,
                library=library,
            )
        ]
    if isinstance(layer, Conv2D):
        # The conv kernel is 4-D; group deletion on dense conv layers operates
        # on the 2-D matrix view, which shares memory with the kernel only if
        # reshaped views were used.  To keep semantics simple, dense conv
        # layers are not grouped — convert them to LowRankConv2D first.
        raise ConfigurationError(
            f"dense Conv2D layer {layer.name!r} cannot be grouped directly; "
            "convert it to a LowRankConv2D (full rank) first"
        )
    raise ConfigurationError(
        f"layer {getattr(layer, 'name', layer)!r} of type {type(layer).__name__} "
        "has no crossbar matrix to group"
    )


def derive_network_groups(
    network: Sequential,
    *,
    library: CrossbarLibrary = PAPER_LIBRARY,
    layers: Optional[Sequence[str]] = None,
    include_small_matrices: bool = False,
) -> List[GroupedMatrix]:
    """Grouped crossbar matrices of a network.

    Parameters
    ----------
    network:
        The (rank-clipped) network.
    library:
        Crossbar library used for tiling.
    layers:
        Restrict to these layer names; ``None`` selects every layer that can
        be grouped (low-rank layers and dense ``Linear`` layers).
    include_small_matrices:
        Keep matrices that fit in a single crossbar.  The paper only applies
        group Lasso to matrices larger than the maximum crossbar, which is
        the default here.
    """
    wanted = None if layers is None else set(layers)
    grouped: List[GroupedMatrix] = []
    seen = set()
    for layer in network:
        if not isinstance(layer, (LowRankLinear, LowRankConv2D, Linear)):
            continue
        if wanted is not None and layer.name not in wanted:
            continue
        seen.add(layer.name)
        for matrix in derive_layer_grouped_matrices(layer, library=library):
            if not include_small_matrices and matrix.plan.is_single_crossbar:
                continue
            grouped.append(matrix)
    if wanted is not None:
        missing = wanted - seen
        if missing:
            raise ConfigurationError(f"layers not found or not groupable: {sorted(missing)}")
    return grouped


def flatten_groups(grouped_matrices: Sequence[GroupedMatrix]) -> List[WeightGroup]:
    """All weight groups of a list of grouped matrices, in order."""
    groups: List[WeightGroup] = []
    for matrix in grouped_matrices:
        groups.extend(matrix.groups)
    return groups


def group_summary(grouped_matrices: Sequence[GroupedMatrix]) -> Dict[str, Dict[str, int]]:
    """Per-matrix counts of row/column groups (useful for reports and tests)."""
    summary: Dict[str, Dict[str, int]] = {}
    for matrix in grouped_matrices:
        summary[matrix.name] = {
            "row_groups": len(matrix.row_groups()),
            "column_groups": len(matrix.column_groups()),
            "crossbars": matrix.plan.num_crossbars,
            "dense_wires": matrix.plan.dense_wire_count(),
        }
    return summary
