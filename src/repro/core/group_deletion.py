"""Group connection deletion (paper Section 3.2).

Starting from a (typically rank-clipped) network, group-Lasso regularization
is applied to every crossbar row group and column group of the big weight
matrices.  Training with the penalty drives many groups to all-zeros; those
groups are then deleted (zeroed and frozen with a pruning mask) so the
corresponding routing wires disappear, and the sparse network is fine-tuned
to recover accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import GroupDeletionConfig
from repro.core.groups import (
    CrossbarGroupLasso,
    GroupedMatrix,
    LockstepCrossbarGroupLasso,
    derive_network_groups,
    matrix_group_norms,
)
from repro.exceptions import ConfigurationError
from repro.hardware.library import PAPER_LIBRARY, CrossbarLibrary
from repro.hardware.routing import (
    RoutingAnalysisCache,
    RoutingReport,
    analyze_routing,
)
from repro.nn.network import Sequential
from repro.nn.trainer import Callback, Trainer
from repro.utils.logging import get_logger

logger = get_logger("core.group_deletion")


def matrix_values(matrix: GroupedMatrix) -> np.ndarray:
    """Current crossbar-matrix values of a grouped matrix (inputs × outputs)."""
    return matrix.values()


def matrix_routing_report(
    matrix: GroupedMatrix,
    *,
    zero_threshold: float = 0.0,
    cache: Optional[RoutingAnalysisCache] = None,
) -> RoutingReport:
    """Routing report of one grouped matrix for its current weights.

    Memoized through ``cache`` when one is given.
    """
    analyze = analyze_routing if cache is None else cache.analyze
    return analyze(
        matrix.values(), matrix.plan, zero_threshold=zero_threshold, name=matrix.name
    )


def _flat_group_norms(matrix: GroupedMatrix) -> Optional[np.ndarray]:
    """All row+column group norms of a matrix as one flat vectorized array."""
    norms = matrix_group_norms(matrix.values(), matrix.plan)
    if norms is None:
        return None
    row_norms, col_norms = norms
    return np.concatenate([row_norms.ravel(), col_norms.ravel()])


def effective_threshold(
    matrix: GroupedMatrix, *, zero_threshold: float, relative_threshold: float
) -> float:
    """Deletion threshold applied to group norms of one matrix.

    Sub-gradient descent shrinks pruned groups towards (but rarely exactly to)
    zero, so the absolute ``zero_threshold`` is complemented by a threshold
    relative to the largest group norm in the matrix — a group this much
    smaller than the strongest group in its matrix is considered deleted.
    """
    if relative_threshold <= 0.0 or not matrix.groups:
        return zero_threshold
    norms = _flat_group_norms(matrix)
    if norms is not None:
        max_norm = float(norms.max())
    else:
        max_norm = max(group.norm() for group in matrix.groups)
    return max(zero_threshold, relative_threshold * max_norm)


def group_deletion_fractions(
    matrix: GroupedMatrix,
    *,
    zero_threshold: float,
    relative_threshold: float,
) -> float:
    """Fraction of the matrix's routing wires that would be deleted right now.

    Every row/column group guards exactly one routing wire, so the fraction of
    groups at or below the effective threshold equals the fraction of
    deletable wires (Figure 5's y-axis).  All group norms come from two block
    reductions; only a padded tiling plan (no block view) takes the per-group
    loop.
    """
    if not matrix.groups:
        return 0.0
    norms = _flat_group_norms(matrix)
    if norms is not None:
        threshold = zero_threshold
        if relative_threshold > 0.0:
            threshold = max(zero_threshold, relative_threshold * float(norms.max()))
        return float(np.count_nonzero(norms <= threshold)) / norms.size
    threshold = effective_threshold(
        matrix, zero_threshold=zero_threshold, relative_threshold=relative_threshold
    )
    below = sum(1 for group in matrix.groups if group.norm() <= threshold)
    return below / len(matrix.groups)


@dataclass
class GroupDeletionTrace:
    """Time series recorded while the group-Lasso penalty is active (Figure 5)."""

    iterations: List[int] = field(default_factory=list)
    deleted_wire_fraction: Dict[str, List[float]] = field(default_factory=dict)
    accuracy: List[Optional[float]] = field(default_factory=list)
    remaining_wire_fraction: Dict[str, List[float]] = field(default_factory=dict)

    def record(
        self,
        iteration: int,
        fractions: Dict[str, float],
        accuracy: Optional[float],
        wire_fractions: Optional[Dict[str, float]] = None,
    ) -> None:
        """Append one observation (per-matrix deleted-wire fractions + accuracy).

        ``wire_fractions`` optionally carries the *actual* remaining-wire
        fraction of every matrix (from a routing analysis of the current
        weights), complementing the norm-threshold-based deleted fraction.
        """
        self.iterations.append(int(iteration))
        for name, fraction in fractions.items():
            self.deleted_wire_fraction.setdefault(name, []).append(float(fraction))
        self.accuracy.append(None if accuracy is None else float(accuracy))
        if wire_fractions is not None:
            for name, fraction in wire_fractions.items():
                self.remaining_wire_fraction.setdefault(name, []).append(float(fraction))

    def final_deleted_fractions(self) -> Dict[str, float]:
        """Deleted-wire fraction of every matrix at the last observation."""
        return {k: v[-1] for k, v in self.deleted_wire_fraction.items() if v}

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the trace."""
        return {
            "iterations": list(self.iterations),
            "deleted_wire_fraction": {k: list(v) for k, v in self.deleted_wire_fraction.items()},
            "accuracy": list(self.accuracy),
            "remaining_wire_fraction": {
                k: list(v) for k, v in self.remaining_wire_fraction.items()
            },
        }


class GroupDeletionCallback(Callback):
    """Records deleted-wire fractions and accuracy during penalized training."""

    def __init__(
        self,
        grouped_matrices: Sequence[GroupedMatrix],
        *,
        record_interval: int = 100,
        zero_threshold: float = 1e-4,
        relative_threshold: float = 0.05,
        evaluate: bool = True,
        routing_cache: Optional[RoutingAnalysisCache] = None,
    ):
        if record_interval < 1:
            raise ConfigurationError(f"record_interval must be >= 1, got {record_interval}")
        self.grouped_matrices = list(grouped_matrices)
        self.record_interval = int(record_interval)
        self.zero_threshold = float(zero_threshold)
        self.relative_threshold = float(relative_threshold)
        self.evaluate = bool(evaluate)
        self.routing_cache = (
            RoutingAnalysisCache() if routing_cache is None else routing_cache
        )
        self.trace = GroupDeletionTrace()

    def _fractions(self) -> Dict[str, float]:
        return {
            matrix.name: group_deletion_fractions(
                matrix,
                zero_threshold=self.zero_threshold,
                relative_threshold=self.relative_threshold,
            )
            for matrix in self.grouped_matrices
        }

    def _wire_fractions(self) -> Dict[str, float]:
        return {
            matrix.name: self.routing_cache.analyze(
                matrix.values(), matrix.plan, name=matrix.name
            ).wire_fraction
            for matrix in self.grouped_matrices
        }

    def _record(self, trainer: Trainer, iteration: int) -> None:
        accuracy = trainer.evaluate() if self.evaluate else None
        self.trace.record(iteration, self._fractions(), accuracy, self._wire_fractions())

    def on_train_begin(self, trainer: Trainer) -> None:
        self._record(trainer, trainer.iteration)

    def on_iteration_end(self, trainer: Trainer, iteration: int) -> None:
        if iteration % self.record_interval != 0:
            return
        self._record(trainer, iteration)


def apply_deletion(
    grouped_matrices: Sequence[GroupedMatrix],
    *,
    zero_threshold: float,
    relative_threshold: float = 0.0,
) -> Dict[str, int]:
    """Zero out and freeze every (near-)zero group; returns deleted-group counts.

    Groups whose L2 norm is at or below the matrix's effective threshold (see
    :func:`effective_threshold`) are set to exactly zero and excluded from
    future updates via the parameter's pruning mask, so fine-tuning cannot
    resurrect a deleted routing wire.
    """
    deleted_counts: Dict[str, int] = {}
    masks: Dict[int, np.ndarray] = {}
    parameters: Dict[int, object] = {}
    for matrix in grouped_matrices:
        key = id(matrix.parameter)
        if key not in masks:
            existing = matrix.parameter.mask
            masks[key] = (
                np.ones(matrix.parameter.data.shape, dtype=bool)
                if existing is None
                else existing.copy()
            )
            parameters[key] = matrix.parameter
        blocks = matrix.plan.block_view(matrix.values())
        if blocks is not None:
            # Vectorized deletion replicating the per-group loop's order: the
            # loop zeroes each deleted row group *before* measuring the column
            # groups of the same tile, so a row deletion can cascade a
            # borderline column below the threshold.  Row decisions use the
            # pre-deletion norms (rows are mutually disjoint); column norms
            # are then measured with the deleted rows masked out, exactly the
            # squares the loop's post-zeroing recomputation would sum.
            squared = blocks * blocks
            row_norms = np.sqrt(squared.sum(axis=3))  # (gr, tr, gc)
            threshold = zero_threshold
            if relative_threshold > 0.0 and matrix.groups:
                col_norms = np.sqrt(squared.sum(axis=1))  # (gr, gc, tc)
                max_norm = max(float(row_norms.max()), float(col_norms.max()))
                threshold = max(zero_threshold, relative_threshold * max_norm)
            row_deleted = row_norms <= threshold
            surviving_squares = squared * ~row_deleted[:, :, :, None]
            col_deleted = np.sqrt(surviving_squares.sum(axis=1)) <= threshold
            keep = (~row_deleted[:, :, :, None] & ~col_deleted[:, None, :, :]).reshape(
                matrix.plan.matrix_rows, matrix.plan.matrix_cols
            )
            masks[key] &= keep.T if matrix.transpose else keep
            deleted_counts[matrix.name] = int(row_deleted.sum() + col_deleted.sum())
            continue
        threshold = effective_threshold(
            matrix, zero_threshold=zero_threshold, relative_threshold=relative_threshold
        )
        deleted = 0
        for group in matrix.groups:
            if group.norm() <= threshold:
                group.zero_out()
                masks[key][group.index] = False
                deleted += 1
        deleted_counts[matrix.name] = deleted
    for key, mask in masks.items():
        parameters[key].set_mask(mask)
    return deleted_counts


@dataclass
class GroupDeletionResult:
    """Outcome of a group-connection-deletion run."""

    network: Sequential
    trace: GroupDeletionTrace
    routing_reports: Dict[str, RoutingReport]
    deleted_groups: Dict[str, int]
    accuracy_before: Optional[float]
    accuracy_after_deletion: Optional[float]
    accuracy_after_finetune: Optional[float]

    def wire_fractions(self) -> Dict[str, float]:
        """Remaining-wire fraction per matrix (the paper's "% wires" row)."""
        return {name: report.wire_fraction for name, report in self.routing_reports.items()}

    def routing_area_fractions(self) -> Dict[str, float]:
        """Remaining routing-area fraction per matrix (Eq. 8)."""
        return {name: report.area_fraction for name, report in self.routing_reports.items()}

    def mean_wire_fraction(self) -> float:
        """Average remaining-wire fraction across matrices."""
        reports = list(self.routing_reports.values())
        if not reports:
            return 1.0
        return float(np.mean([r.wire_fraction for r in reports]))

    def mean_routing_area_fraction(self) -> float:
        """Average remaining routing-area fraction across matrices."""
        reports = list(self.routing_reports.values())
        if not reports:
            return 1.0
        return float(np.mean([r.area_fraction for r in reports]))


class GroupConnectionDeleter:
    """High-level driver for group connection deletion.

    Parameters
    ----------
    config, library, record_interval:
        Hyper-parameters, crossbar library, and Figure-5 trace cadence.
    routing_cache:
        The :class:`~repro.hardware.routing.RoutingAnalysisCache` every
        routing analysis (record steps and final reports) goes through, so
        repeated analyses of near-identical live masks collapse to a hash
        lookup.  Pass one to share it (e.g. across the points of a sweep);
        by default the deleter makes its own.

    The penalty is the vectorized :class:`~repro.core.groups.CrossbarGroupLasso`
    (the objective of the flat per-group
    :class:`~repro.nn.regularization.GroupLassoRegularizer`, computed with
    block reductions).
    """

    def __init__(
        self,
        config: GroupDeletionConfig = GroupDeletionConfig(),
        *,
        library: CrossbarLibrary = PAPER_LIBRARY,
        record_interval: int = 100,
        routing_cache: Optional[RoutingAnalysisCache] = None,
    ):
        self.config = config
        self.library = library
        self.record_interval = int(record_interval)
        # An empty cache is falsy (it defines __len__): test identity, not truth.
        self.routing_cache = (
            RoutingAnalysisCache() if routing_cache is None else routing_cache
        )

    def derive_groups(self, network: Sequential) -> List[GroupedMatrix]:
        """Grouped crossbar matrices this configuration penalizes."""
        return derive_network_groups(
            network,
            library=self.library,
            layers=self.config.layers,
            include_small_matrices=self.config.include_small_matrices,
        )

    def run(self, network: Sequential, trainer_factory) -> GroupDeletionResult:
        """Run penalized training, deletion and fine-tuning on ``network``.

        ``trainer_factory`` is a callable ``(network, callbacks) -> Trainer``.
        """
        grouped = self.derive_groups(network)
        if not grouped:
            raise ConfigurationError(
                "no crossbar matrices selected for deletion; "
                "set include_small_matrices=True or check the layer list"
            )
        callback = GroupDeletionCallback(
            grouped,
            record_interval=self.record_interval,
            zero_threshold=self.config.zero_threshold,
            relative_threshold=self.config.relative_threshold,
            routing_cache=self.routing_cache,
        )
        trainer = trainer_factory(network, [callback])
        regularizer = CrossbarGroupLasso(grouped, self.config.strength)
        trainer.add_regularizer(regularizer)
        accuracy_before = trainer.evaluate()
        trainer.run(self.config.iterations)
        trainer.remove_regularizer(regularizer)

        deleted = apply_deletion(
            grouped,
            zero_threshold=self.config.zero_threshold,
            relative_threshold=self.config.relative_threshold,
        )
        accuracy_after_deletion = trainer.evaluate()
        logger.info(
            "deleted %d groups across %d matrices",
            sum(deleted.values()),
            len(grouped),
        )
        if self.config.finetune_iterations > 0:
            trainer.run(self.config.finetune_iterations)
        accuracy_after_finetune = trainer.evaluate()

        reports = {
            matrix.name: matrix_routing_report(
                matrix, zero_threshold=0.0, cache=self.routing_cache
            )
            for matrix in grouped
        }
        return GroupDeletionResult(
            network=network,
            trace=callback.trace,
            routing_reports=reports,
            deleted_groups=deleted,
            accuracy_before=accuracy_before,
            accuracy_after_deletion=accuracy_after_deletion,
            accuracy_after_finetune=accuracy_after_finetune,
        )


def _check_lockstep_configs(configs: Sequence[GroupDeletionConfig]) -> None:
    base = configs[0]
    shared_fields = (
        "iterations",
        "finetune_iterations",
        "zero_threshold",
        "relative_threshold",
        "include_small_matrices",
        "layers",
    )
    for config in configs[1:]:
        for name in shared_fields:
            if getattr(config, name) != getattr(base, name):
                raise ConfigurationError(
                    "lockstep group deletion requires configs that differ only "
                    f"in strength; {name} disagrees "
                    f"({getattr(config, name)!r} vs {getattr(base, name)!r})"
                )


def run_lockstep_deletion(
    networks: Sequence[Sequential],
    configs: Sequence[GroupDeletionConfig],
    lockstep_trainer_factory,
    *,
    library: CrossbarLibrary = PAPER_LIBRARY,
    record_interval: int = 100,
    routing_cache: Optional[RoutingAnalysisCache] = None,
) -> List[GroupDeletionResult]:
    """Run group deletion on K same-architecture networks in lockstep.

    The lockstep counterpart of :meth:`GroupConnectionDeleter.run`: the K
    λ-points train as one stacked program (see
    :class:`~repro.nn.trainer.LockstepTrainer`) with a per-point-λ group
    Lasso, per-point record callbacks, a single shared deletion boundary and
    a stacked fine-tune over the per-point pruning masks.  Every per-point
    result is bit-identical to K independent serial runs.  The stack is
    fixed for its lifetime: the record callbacks only observe, and mask
    installation keeps every shape, so a parameter that changes shape raises
    :class:`~repro.exceptions.TrainingError`.

    ``lockstep_trainer_factory`` is a callable
    ``(networks, callbacks_per_point) -> LockstepTrainer`` — the lockstep
    analogue of the serial ``trainer_factory``.  ``configs`` must differ only
    in ``strength``.  The routing cache (``routing_cache``, or a fresh one)
    is shared by every point's record steps and final reports, so one mask
    fingerprint warms all K points.
    """
    if routing_cache is None:
        routing_cache = RoutingAnalysisCache()
    networks = list(networks)
    configs = list(configs)
    if not networks:
        raise ConfigurationError("lockstep deletion needs at least one network")
    if len(networks) != len(configs):
        raise ConfigurationError(
            f"{len(networks)} networks but {len(configs)} configs"
        )
    _check_lockstep_configs(configs)
    base = configs[0]

    grouped_per_point = [
        derive_network_groups(
            network,
            library=library,
            layers=config.layers,
            include_small_matrices=config.include_small_matrices,
        )
        for network, config in zip(networks, configs)
    ]
    if not grouped_per_point[0]:
        raise ConfigurationError(
            "no crossbar matrices selected for deletion; "
            "set include_small_matrices=True or check the layer list"
        )
    callbacks_per_point = [
        [
            GroupDeletionCallback(
                grouped,
                record_interval=record_interval,
                zero_threshold=base.zero_threshold,
                relative_threshold=base.relative_threshold,
                routing_cache=routing_cache,
            )
        ]
        for grouped in grouped_per_point
    ]
    trainer = lockstep_trainer_factory(networks, callbacks_per_point)
    regularizer = LockstepCrossbarGroupLasso(
        trainer.stack, grouped_per_point, [config.strength for config in configs]
    )
    trainer.add_regularizer(regularizer)

    accuracy_before = trainer.evaluate()
    trainer.run(base.iterations)
    trainer.remove_regularizer(regularizer)

    deleted = [
        apply_deletion(
            grouped,
            zero_threshold=base.zero_threshold,
            relative_threshold=base.relative_threshold,
        )
        for grouped in grouped_per_point
    ]
    # Mask installation re-bound the parameters; fold it back into the slabs
    # (momentum persists across the boundary, exactly as in the serial run).
    trainer.refresh_points()
    accuracy_after_deletion = trainer.evaluate()
    logger.info(
        "lockstep-deleted %d groups across %d points",
        sum(sum(counts.values()) for counts in deleted),
        len(networks),
    )
    if base.finetune_iterations > 0:
        trainer.run(base.finetune_iterations)
    accuracy_after_finetune = trainer.evaluate()
    trainer.finalize()

    def _point_accuracy(values, slot):
        return None if values is None else values[slot]

    results = []
    for slot, (network, grouped) in enumerate(zip(networks, grouped_per_point)):
        reports = {
            matrix.name: matrix_routing_report(
                matrix, zero_threshold=0.0, cache=routing_cache
            )
            for matrix in grouped
        }
        results.append(
            GroupDeletionResult(
                network=network,
                trace=callbacks_per_point[slot][0].trace,
                routing_reports=reports,
                deleted_groups=deleted[slot],
                accuracy_before=_point_accuracy(accuracy_before, slot),
                accuracy_after_deletion=_point_accuracy(accuracy_after_deletion, slot),
                accuracy_after_finetune=_point_accuracy(accuracy_after_finetune, slot),
            )
        )
    return results
