"""Stacked-state SGD for lockstep multi-network training.

:class:`LockstepSGD` is the :class:`~repro.nn.optim.sgd.SGD` update applied
to the ``(K, …)`` parameter slabs of a
:class:`~repro.nn.batched.NetworkStack`: velocity and weight decay live as
slabs, one learning-rate schedule drives every point, and every update is
**in place** so the per-point ``Parameter`` views into the slabs stay valid.
Row ``k`` of every buffer evolves bit-identically to an independent ``SGD``
driving point ``k`` alone — all update arithmetic is element-wise, so
stacking changes memory layout, never values.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.nn.optim.schedules import LRSchedule, as_schedule
from repro.utils.validation import check_non_negative


class LockstepSGD:
    """SGD with momentum/weight decay over ``(K, …)`` parameter slabs.

    A stack is fixed for its lifetime, so the slabs never change shape and
    the momentum slabs are allocated once.

    Parameters
    ----------
    parameters:
        The :class:`~repro.nn.batched.StackedParameter` slabs to update.
    lr:
        A float or :class:`~repro.nn.optim.schedules.LRSchedule` shared by
        all points.
    momentum, weight_decay:
        As in :class:`~repro.nn.optim.sgd.SGD`, shared by all points.
    """

    def __init__(
        self,
        parameters: Sequence,
        lr: Union[float, LRSchedule] = 0.01,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        params = list(parameters)
        if not params:
            raise ValueError("optimizer needs at least one stacked parameter")
        points = {sp.num_points for sp in params}
        if len(points) != 1:
            raise ValueError(f"stacked parameters disagree on K: {sorted(points)}")
        self._parameters = params
        self._num_points = points.pop()
        self.schedule = as_schedule(lr)
        self.momentum = check_non_negative(momentum, "momentum")
        self.weight_decay = check_non_negative(weight_decay, "weight_decay")
        self._velocity: Dict[int, np.ndarray] = {}
        self.iteration = 0

    # ------------------------------------------------------------- queries
    @property
    def parameters(self) -> List:
        """The stacked parameters managed by this optimizer."""
        return list(self._parameters)

    @property
    def num_points(self) -> int:
        """Number of points in the stack."""
        return self._num_points

    # -------------------------------------------------------------- updates
    def zero_grad(self) -> None:
        """Zero every gradient slab in place."""
        for sp in self._parameters:
            sp.zero_grad()

    def step(self) -> None:
        """Apply one in-place update to every trainable slab."""
        lr = self.schedule(self.iteration)
        for index, sp in enumerate(self._parameters):
            if not sp.trainable:
                continue
            grad = sp.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * sp.data
            if self.momentum > 0.0:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(sp.data)
                    self._velocity[index] = velocity
                # In place, element-wise: bit-identical to `m·v + grad`.
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            np.subtract(sp.data, lr * grad, out=sp.data)
            sp.apply_mask()
        self.iteration += 1
