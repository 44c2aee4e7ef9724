"""Regularizers.

A regularizer adds a penalty to the training objective and a matching term to
the parameter gradients.  The trainer calls :meth:`Regularizer.penalty` when
logging the objective and :meth:`Regularizer.apply_gradients` right after the
data-loss backward pass and before the optimizer step, which realizes Eq. (4)
of the paper:

``E(W) = E_D(W) + λ·Σ_g ||W_g||``

The generic :class:`GroupLassoRegularizer` here works on arbitrary index
groups of arbitrary parameters; the crossbar-aware grouping (row/column
groups per tile) is constructed by :mod:`repro.core.groups` and passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.validation import check_non_negative


class Regularizer:
    """Base class for penalty terms added to the training objective."""

    def penalty(self) -> float:
        """Return the scalar penalty value for the current parameter values."""
        raise NotImplementedError

    def apply_gradients(self) -> None:
        """Accumulate the penalty gradient into the parameters' ``grad`` buffers."""
        raise NotImplementedError


class L2Regularizer(Regularizer):
    """Classic weight decay ``(λ/2)·Σ ||w||²`` over a list of parameters."""

    def __init__(self, parameters: Sequence[Parameter], strength: float):
        self.strength = check_non_negative(strength, "strength")
        self._parameters = list(parameters)

    def penalty(self) -> float:
        if self.strength == 0.0:
            return 0.0
        total = sum(float(np.sum(p.data**2)) for p in self._parameters)
        return 0.5 * self.strength * total

    def apply_gradients(self) -> None:
        if self.strength == 0.0:
            return
        for param in self._parameters:
            param.grad += self.strength * param.data


@dataclass(frozen=True)
class WeightGroup:
    """One group of weights inside a single parameter array.

    Attributes
    ----------
    parameter:
        The parameter the group lives in.
    index:
        Any numpy fancy index (tuple of slices / arrays) selecting the group
        entries inside ``parameter.data``.
    label:
        Human-readable identifier, e.g. ``"fc1_u/tile0_1/row3"``.
    kind:
        ``"row"`` or ``"column"`` — which routing wire the group guards.
    """

    parameter: Parameter
    index: Tuple
    label: str
    kind: str

    def values(self) -> np.ndarray:
        """Current weight values of the group (a view when possible)."""
        return self.parameter.data[self.index]

    def norm(self) -> float:
        """Euclidean norm of the group."""
        return float(np.linalg.norm(self.values()))

    def size(self) -> int:
        """Number of weights in the group."""
        return int(np.asarray(self.values()).size)

    def zero_out(self) -> None:
        """Set every weight in the group to exactly zero."""
        self.parameter.data[self.index] = 0.0


class GroupLassoRegularizer(Regularizer):
    """Group-Lasso penalty ``λ·Σ_g ||W_g||`` over explicit weight groups.

    The gradient of each group follows the numerically-safe form of Eq. (6):
    ``λ · w / max(||W_g||, eps)`` so all-zero groups do not produce NaNs.
    """

    def __init__(self, groups: Sequence[WeightGroup], strength: float, *, eps: float = 1e-12):
        self.strength = check_non_negative(strength, "strength")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self._groups: List[WeightGroup] = list(groups)

    @property
    def groups(self) -> List[WeightGroup]:
        """The weight groups this regularizer penalizes."""
        return list(self._groups)

    def penalty(self) -> float:
        if self.strength == 0.0 or not self._groups:
            return 0.0
        return self.strength * sum(group.norm() for group in self._groups)

    def apply_gradients(self) -> None:
        if self.strength == 0.0:
            return
        for group in self._groups:
            values = group.values()
            norm = np.linalg.norm(values)
            group.parameter.grad[group.index] += self.strength * values / max(norm, self.eps)

    # ------------------------------------------------------------ reporting
    def group_norms(self) -> List[float]:
        """Euclidean norms of every group, in group order."""
        return [group.norm() for group in self._groups]

    def zero_groups(self, threshold: float = 0.0) -> List[WeightGroup]:
        """Return the groups whose norm is at or below ``threshold``."""
        threshold = check_non_negative(threshold, "threshold")
        return [group for group in self._groups if group.norm() <= threshold]


class LockstepRegularizer:
    """Per-point penalty over the K points of a lockstep training stack.

    The lockstep counterpart of :class:`Regularizer`:
    :meth:`penalties` returns one penalty value per stacked point and
    :meth:`apply_gradients` accumulates into the per-point gradients (which
    alias the stack's gradient slabs).
    """

    def penalties(self) -> np.ndarray:
        """Penalty value of every stacked point, in stack order."""
        raise NotImplementedError

    def apply_gradients(self) -> None:
        """Accumulate every point's penalty gradient into its parameters."""
        raise NotImplementedError
