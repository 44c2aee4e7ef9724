"""Iteration-based training loop.

The paper schedules everything in *iterations* (mini-batch steps), e.g.
"clip ranks every S = 500 iterations", so the trainer is iteration-centric
rather than epoch-centric.  Callbacks observe the trainer after every
iteration and may restructure the network (rank clipping replaces factor
matrices; group deletion installs pruning masks); after a structural change
they must call :meth:`Trainer.rebind_optimizer` so the optimizer tracks the
new parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.loaders import DataLoader
from repro.exceptions import ShapeError, TrainingError
from repro.nn import functional as F
from repro.nn.batched import NetworkStack
from repro.nn.losses import Loss
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential
from repro.nn.optim.base import Optimizer
from repro.nn.optim.lockstep import LockstepSGD
from repro.nn.regularization import LockstepRegularizer, Regularizer
from repro.utils.logging import get_logger

logger = get_logger("nn.trainer")


class Callback:
    """Observer hooks invoked by the trainer."""

    def on_train_begin(self, trainer: "Trainer") -> None:
        """Called once before the first iteration."""

    def on_iteration_end(self, trainer: "Trainer", iteration: int) -> None:
        """Called after every optimizer step (``iteration`` is 1-based)."""

    def on_train_end(self, trainer: "Trainer") -> None:
        """Called once after the last iteration."""


@dataclass
class TrainingHistory:
    """Per-iteration and per-evaluation traces recorded during training."""

    iterations: List[int] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)
    penalty: List[float] = field(default_factory=list)
    eval_iterations: List[int] = field(default_factory=list)
    eval_accuracy: List[float] = field(default_factory=list)

    def last_accuracy(self) -> Optional[float]:
        """The most recent evaluation accuracy, or ``None`` before any evaluation."""
        return self.eval_accuracy[-1] if self.eval_accuracy else None

    def as_dict(self) -> Dict[str, List[float]]:
        """Plain-dict view for serialization."""
        return {
            "iterations": list(self.iterations),
            "loss": list(self.loss),
            "penalty": list(self.penalty),
            "eval_iterations": list(self.eval_iterations),
            "eval_accuracy": list(self.eval_accuracy),
        }


class Trainer:
    """Mini-batch trainer tying together network, loss, optimizer and callbacks."""

    def __init__(
        self,
        network: Sequential,
        loss: Loss,
        optimizer: Optimizer,
        train_loader: DataLoader,
        *,
        eval_data: Optional[tuple] = None,
        regularizers: Sequence[Regularizer] = (),
        callbacks: Sequence[Callback] = (),
        eval_interval: int = 100,
        eval_batch_size: int = 256,
        log_interval: int = 0,
    ):
        if eval_interval < 1:
            raise TrainingError(f"eval_interval must be >= 1, got {eval_interval}")
        self.network = network
        self.loss = loss
        self.optimizer = optimizer
        self.train_loader = train_loader
        self.eval_data = eval_data
        self.regularizers = list(regularizers)
        self.callbacks = list(callbacks)
        self.eval_interval = int(eval_interval)
        self.eval_batch_size = int(eval_batch_size)
        self.log_interval = int(log_interval)
        self.history = TrainingHistory()
        self.iteration = 0
        self._batch_iter = None

    # ------------------------------------------------------------- plumbing
    def rebind_optimizer(self) -> None:
        """Point the optimizer at the network's current parameter objects.

        Must be called after any structural change (rank clipping) that
        replaces parameter arrays, otherwise the optimizer keeps updating
        stale arrays.
        """
        self.optimizer.set_parameters(self.network.parameters())

    def add_regularizer(self, regularizer: Regularizer) -> None:
        """Attach an additional penalty term (e.g. group Lasso) mid-training."""
        self.regularizers.append(regularizer)

    def remove_regularizer(self, regularizer: Regularizer) -> None:
        """Detach a previously-added penalty term."""
        self.regularizers = [r for r in self.regularizers if r is not regularizer]

    def _next_batch(self):
        if self._batch_iter is None:
            self._batch_iter = iter(self.train_loader)
        try:
            return next(self._batch_iter)
        except StopIteration:
            self._batch_iter = iter(self.train_loader)
            return next(self._batch_iter)

    # ------------------------------------------------------------- training
    def train_step(self) -> float:
        """Run a single mini-batch update and return the (data + penalty) loss."""
        inputs, targets = self._next_batch()
        self.network.train()
        self.network.zero_grad()
        logits = self.network.forward(inputs)
        data_loss = self.loss.forward(logits, targets)
        grad = self.loss.backward()
        self.network.backward(grad, need_input_grad=False)
        penalty = 0.0
        for regularizer in self.regularizers:
            penalty += regularizer.penalty()
            regularizer.apply_gradients()
        self.optimizer.step()
        self.iteration += 1
        total = data_loss + penalty
        self.history.iterations.append(self.iteration)
        self.history.loss.append(float(data_loss))
        self.history.penalty.append(float(penalty))
        return float(total)

    def evaluate(self) -> Optional[float]:
        """Evaluate accuracy on the held-out data, recording it in the history."""
        if self.eval_data is None:
            return None
        inputs, targets = self.eval_data
        logits = self.network.predict(inputs, batch_size=self.eval_batch_size)
        acc = accuracy(logits, targets)
        self.history.eval_iterations.append(self.iteration)
        self.history.eval_accuracy.append(float(acc))
        return float(acc)

    def run(self, num_iterations: int) -> TrainingHistory:
        """Train for ``num_iterations`` mini-batch steps."""
        if num_iterations < 0:
            raise TrainingError(f"num_iterations must be >= 0, got {num_iterations}")
        for callback in self.callbacks:
            callback.on_train_begin(self)
        for _ in range(num_iterations):
            loss_value = self.train_step()
            if self.eval_data is not None and self.iteration % self.eval_interval == 0:
                self.evaluate()
            if self.log_interval and self.iteration % self.log_interval == 0:
                acc = self.history.last_accuracy()
                acc_str = f", acc={acc:.4f}" if acc is not None else ""
                logger.info("iter %d: loss=%.4f%s", self.iteration, loss_value, acc_str)
            for callback in self.callbacks:
                callback.on_iteration_end(self, self.iteration)
        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history


# ---------------------------------------------------------------------------
# Lockstep training: K same-architecture networks trained as one tensor op
# ---------------------------------------------------------------------------
def _stacked_softmax_ce(logits3: np.ndarray, targets: np.ndarray):
    """Per-point softmax cross-entropy over ``(K, N, classes)`` logits.

    One log-softmax pass over the super-batch replaces K
    :class:`~repro.nn.losses.SoftmaxCrossEntropy` calls; every operation is
    row-wise or per-point, so losses and gradients are bit-identical to the
    per-point loss objects.  ``targets`` is the ``(K·N,)`` point-major
    concatenation; returns ``(losses (K,), grad (K·N, classes))``.
    """
    k, n, num_classes = logits3.shape
    if targets.shape != (k * n,):
        raise ShapeError(
            f"targets must be 1-D with length {k * n}, got shape {targets.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError(f"targets must be class indices in [0, {num_classes - 1}]")
    targets = targets.astype(int)
    log_probs = F.log_softmax(logits3.reshape(k * n, num_classes), axis=1)
    picked = log_probs[np.arange(k * n), targets]
    losses = -(picked.reshape(k, n).mean(axis=1))
    grad = np.exp(log_probs)
    grad[np.arange(k * n), targets] -= 1.0
    return losses, grad / n


class _LockstepPoint:
    """Bookkeeping for one network riding a lockstep stack."""

    __slots__ = (
        "index",
        "network",
        "callbacks",
        "history",
        "handle",
        "loader",
        "batch_iter",
    )

    def __init__(self, index: int, network: Sequential, callbacks):
        self.index = index
        self.network = network
        self.callbacks = list(callbacks)
        self.history = TrainingHistory()
        self.handle: Optional["LockstepPointHandle"] = None
        self.loader: Optional[DataLoader] = None
        self.batch_iter = None


class LockstepPointHandle:
    """Per-point facade with the :class:`Trainer` surface callbacks rely on.

    Callbacks written against ``Trainer`` (group deletion's recorder)
    receive one of these per point: ``network``, ``history``, ``iteration``
    and ``evaluate()`` behave exactly like the serial trainer's.  A stacked
    point's parameters are fixed for the stack's lifetime, so
    ``rebind_optimizer()`` — the serial trainer's hook after a
    shape-changing restructure — raises :class:`~repro.exceptions.TrainingError`.
    """

    def __init__(self, trainer: "LockstepTrainer", point: _LockstepPoint):
        self._trainer = trainer
        self._point = point

    @property
    def network(self) -> Sequential:
        """The point's network (its parameters alias the stack's slabs)."""
        return self._point.network

    @property
    def history(self) -> TrainingHistory:
        """The point's training history."""
        return self._point.history

    @property
    def iteration(self) -> int:
        """The lockstep trainer's shared iteration counter."""
        return self._trainer.iteration

    def evaluate(self) -> Optional[float]:
        """Evaluate this point on the held-out data (mirrors ``Trainer.evaluate``)."""
        return self._trainer._evaluate_point(self._point)

    def rebind_optimizer(self) -> None:
        """Refuse a restructure: a lockstep stack is fixed for its lifetime."""
        raise TrainingError(
            f"lockstep point {self._point.index} cannot re-bind its optimizer: "
            "a stacked point's parameters are fixed for the stack's lifetime; "
            "train shape-changing points serially"
        )


class LockstepTrainer:
    """Train K same-architecture networks in lockstep on one core.

    Mirrors the :class:`Trainer` iteration/callback/regularizer contract over
    a :class:`~repro.nn.batched.NetworkStack`: each iteration draws one
    mini-batch (shared by every point, or one per point), runs the stacked
    forward/backward with one fused softmax cross-entropy over the
    super-batch, applies :class:`~repro.nn.regularization.LockstepRegularizer`
    penalties (e.g. the per-point-λ crossbar group Lasso) and one
    :class:`~repro.nn.optim.lockstep.LockstepSGD` step over the slabs.  Every
    per-point trajectory — weights, losses, penalties, evaluation accuracies
    — is bit-identical to running K serial :class:`Trainer` instances with
    :class:`~repro.nn.losses.SoftmaxCrossEntropy`.

    The stack is fixed for its lifetime.  A same-shape re-bind made by a
    callback or between runs (mask installation) is re-absorbed into the
    slabs; a parameter that changes shape raises
    :class:`~repro.exceptions.TrainingError` naming the point, and so does
    ``rebind_optimizer()`` on a point handle.

    Parameters
    ----------
    stack:
        The compiled :class:`~repro.nn.batched.NetworkStack`.
    optimizer:
        A :class:`~repro.nn.optim.lockstep.LockstepSGD` over the stack's slabs.
    train_loader:
        One shared :class:`~repro.data.loaders.DataLoader` (every point sees
        the same batch stream, enabling shared im2col) or a sequence of K
        per-point loaders (independent streams, e.g. ``per_point_seed``).
    callbacks:
        One callback list per point (or empty).
    regularizers, eval_data, eval_interval, eval_batch_size, log_interval:
        As in :class:`Trainer`; regularizers must implement the
        :class:`~repro.nn.regularization.LockstepRegularizer` protocol.
    """

    def __init__(
        self,
        stack: NetworkStack,
        optimizer: LockstepSGD,
        train_loader: Union[DataLoader, Sequence[DataLoader]],
        *,
        eval_data: Optional[tuple] = None,
        regularizers: Sequence[LockstepRegularizer] = (),
        callbacks: Sequence[Sequence[Callback]] = (),
        eval_interval: int = 100,
        eval_batch_size: int = 256,
        log_interval: int = 0,
    ):
        if eval_interval < 1:
            raise TrainingError(f"eval_interval must be >= 1, got {eval_interval}")
        self.stack = stack
        self.optimizer = optimizer
        self.eval_data = eval_data
        self.regularizers: List[LockstepRegularizer] = list(regularizers)
        self.eval_interval = int(eval_interval)
        self.eval_batch_size = int(eval_batch_size)
        self.log_interval = int(log_interval)
        self.iteration = 0

        num_points = stack.num_points
        per_point_callbacks = [list(cbs) for cbs in callbacks] if callbacks else []
        if per_point_callbacks and len(per_point_callbacks) != num_points:
            raise TrainingError(
                f"expected one callback list per point ({num_points}), "
                f"got {len(per_point_callbacks)}"
            )
        if not per_point_callbacks:
            per_point_callbacks = [[] for _ in range(num_points)]

        self._points: List[_LockstepPoint] = []
        for index, network in enumerate(stack.networks):
            point = _LockstepPoint(index, network, per_point_callbacks[index])
            point.handle = LockstepPointHandle(self, point)
            self._points.append(point)

        self._shared_iter = None
        if isinstance(train_loader, DataLoader):
            self._shared_loader: Optional[DataLoader] = train_loader
        else:
            loaders = list(train_loader)
            if len(loaders) != num_points:
                raise TrainingError(
                    f"expected one loader per point ({num_points}), got {len(loaders)}"
                )
            self._shared_loader = None
            for point, loader in zip(self._points, loaders):
                point.loader = loader

    # ------------------------------------------------------------- plumbing
    @property
    def points(self) -> List[LockstepPointHandle]:
        """Per-point handles, in point order."""
        return [point.handle for point in self._points]

    @property
    def histories(self) -> List[TrainingHistory]:
        """Per-point training histories, in point order."""
        return [point.history for point in self._points]

    def add_regularizer(self, regularizer: LockstepRegularizer) -> None:
        """Attach a lockstep penalty term (e.g. the per-point-λ group Lasso)."""
        self.regularizers.append(regularizer)

    def remove_regularizer(self, regularizer: LockstepRegularizer) -> None:
        """Detach a previously-added penalty term."""
        self.regularizers = [r for r in self.regularizers if r is not regularizer]

    def _next_shared_batch(self):
        if self._shared_iter is None:
            self._shared_iter = iter(self._shared_loader)
        try:
            return next(self._shared_iter)
        except StopIteration:
            self._shared_iter = iter(self._shared_loader)
            return next(self._shared_iter)

    @staticmethod
    def _next_point_batch(point: _LockstepPoint):
        if point.batch_iter is None:
            point.batch_iter = iter(point.loader)
        try:
            return next(point.batch_iter)
        except StopIteration:
            point.batch_iter = iter(point.loader)
            return next(point.batch_iter)

    # ------------------------------------------------------- point handling
    def refresh_points(self) -> None:
        """Re-absorb same-shape re-binds (e.g. mask installation) into the slabs.

        Call after structural operations performed outside :meth:`run` —
        ``apply_deletion`` re-binds parameter data when it installs pruning
        masks — so the slabs pick the changes up before training resumes.
        Raises :class:`~repro.exceptions.TrainingError` when a point's
        parameter changed shape: the stack is fixed for its lifetime.
        """
        for slot, point in enumerate(self._points):
            status = self.stack.scan_point(slot)
            if status == "diverged":
                raise TrainingError(
                    f"lockstep point {point.index} changed a parameter's shape; "
                    "a lockstep stack is fixed for its lifetime, so "
                    "shape-changing points must train serially"
                )
            if status == "rebound":
                self.stack.refresh_point(slot)

    # ------------------------------------------------------------- training
    def train_step(self) -> List[float]:
        """Run one lockstep mini-batch update; returns per-point total losses."""
        if self._shared_loader is not None:
            inputs, targets = self._next_shared_batch()
            targets = np.concatenate([targets] * len(self._points))
        else:
            batches = [self._next_point_batch(point) for point in self._points]
            inputs = [batch[0] for batch in batches]
            targets = np.concatenate([batch[1] for batch in batches])

        self.iteration += 1
        self.stack.train()
        self.stack.zero_grad()
        logits3 = self.stack.forward(inputs)
        data_losses, grad_super = _stacked_softmax_ce(logits3, targets)
        self.stack.backward(grad_super)
        penalties = [0.0 for _ in self._points]
        for regularizer in self.regularizers:
            values = regularizer.penalties()
            regularizer.apply_gradients()
            for slot in range(len(self._points)):
                penalties[slot] += float(values[slot])
        self.optimizer.step()
        totals = []
        for slot, point in enumerate(self._points):
            point.history.iterations.append(self.iteration)
            point.history.loss.append(float(data_losses[slot]))
            point.history.penalty.append(float(penalties[slot]))
            totals.append(float(data_losses[slot] + penalties[slot]))
        return totals

    def _evaluate_point(self, point: _LockstepPoint) -> Optional[float]:
        if self.eval_data is None:
            return None
        inputs, targets = self.eval_data
        logits = point.network.predict(inputs, batch_size=self.eval_batch_size)
        acc = accuracy(logits, targets)
        point.history.eval_iterations.append(self.iteration)
        point.history.eval_accuracy.append(float(acc))
        return float(acc)

    def evaluate(self) -> Optional[List[float]]:
        """Evaluate every point on the held-out data, recording histories.

        Each point predicts on its own.  Returns per-point accuracies in
        point order, or ``None`` when no evaluation data is attached
        (mirroring :class:`Trainer`).
        """
        if self.eval_data is None:
            return None
        return [self._evaluate_point(point) for point in self._points]

    def run(self, num_iterations: int) -> List[TrainingHistory]:
        """Train every point for ``num_iterations`` lockstep mini-batch steps."""
        if num_iterations < 0:
            raise TrainingError(f"num_iterations must be >= 0, got {num_iterations}")
        for point in self._points:
            for callback in point.callbacks:
                callback.on_train_begin(point.handle)
        self.refresh_points()
        for _ in range(num_iterations):
            losses = self.train_step()
            if self.eval_data is not None and self.iteration % self.eval_interval == 0:
                self.evaluate()
            if self.log_interval and self.iteration % self.log_interval == 0:
                logger.info(
                    "lockstep iter %d: mean loss=%.4f over %d points",
                    self.iteration,
                    float(np.mean(losses)),
                    len(self._points),
                )
            for point in self._points:
                for callback in point.callbacks:
                    callback.on_iteration_end(point.handle, self.iteration)
            self.refresh_points()
        for point in self._points:
            for callback in point.callbacks:
                callback.on_train_end(point.handle)
        self.refresh_points()
        return self.histories

    def finalize(self) -> None:
        """Release the slab aliases: every network owns its arrays again."""
        self.stack.detach_all()
