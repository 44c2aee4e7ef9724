"""Shared training plumbing for the experiment harness.

:class:`TrainingSetup` owns the datasets, hyper-parameters and random seeds
of one experiment and produces the ``trainer_factory`` callables consumed by
:class:`~repro.core.rank_clipping.RankClipper`,
:class:`~repro.core.group_deletion.GroupConnectionDeleter` and
:class:`~repro.core.scissor.GroupScissor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.data import ArrayDataset, DataLoader
from repro.exceptions import ConfigurationError
from repro.experiments.presets import ExperimentScale
from repro.experiments.workloads import Workload
from repro.nn import SGD, SoftmaxCrossEntropy, Trainer, accuracy
from repro.nn.batched import NetworkStack
from repro.nn.network import Sequential
from repro.nn.optim.lockstep import LockstepSGD
from repro.nn.trainer import LockstepTrainer
from repro.utils.rng import as_rng, derive_seed


@dataclass
class TrainingSetup:
    """Datasets + hyper-parameters for one experiment run.

    ``evaluate_during_training`` controls whether trainers built by
    :meth:`trainer_factory` carry the held-out split for periodic/in-run
    evaluation.  Sweep points whose traces are discarded switch it off (the
    training trajectory is bit-identical either way — evaluation is a pure
    inference pass — but each point stops paying for test-set passes nobody
    reads); :meth:`evaluate` keeps working regardless.
    """

    train_dataset: ArrayDataset
    test_dataset: ArrayDataset
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    eval_interval: int = 100
    seed: int = 0
    evaluate_during_training: bool = True
    _loader_seed: int = field(init=False, default=0)

    def __post_init__(self):
        rng = as_rng(self.seed)
        self._loader_seed = derive_seed(rng)

    # ------------------------------------------------------------ factories
    @classmethod
    def from_workload(cls, workload: Workload, **overrides) -> "TrainingSetup":
        """Build a setup from a workload's datasets and scale defaults."""
        scale: ExperimentScale = workload.scale
        train, test = workload.data()
        defaults = dict(
            batch_size=scale.batch_size,
            learning_rate=scale.learning_rate,
            momentum=scale.momentum,
            eval_interval=scale.eval_interval,
            seed=scale.seed,
        )
        defaults.update(overrides)
        return cls(train_dataset=train, test_dataset=test, **defaults)

    def make_loader(self) -> DataLoader:
        """A fresh shuffling loader over the training split."""
        return DataLoader(
            self.train_dataset,
            batch_size=self.batch_size,
            shuffle=True,
            rng=self._loader_seed,
        )

    def trainer_factory(self, network: Sequential, callbacks: Sequence = ()) -> Trainer:
        """Build a trainer for ``network`` (the callable passed to the core drivers)."""
        optimizer = SGD(
            network.parameters(),
            lr=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        return Trainer(
            network,
            SoftmaxCrossEntropy(),
            optimizer,
            self.make_loader(),
            eval_data=self.test_dataset.arrays() if self.evaluate_during_training else None,
            callbacks=list(callbacks),
            eval_interval=self.eval_interval,
        )

    def lockstep_trainer_factory(
        self,
        networks: Sequence[Sequential],
        callbacks_per_point: Sequence[Sequence] = (),
        *,
        point_setups: Optional[Sequence["TrainingSetup"]] = None,
    ) -> LockstepTrainer:
        """Build a lockstep trainer for K same-architecture networks.

        The lockstep counterpart of :meth:`trainer_factory`: one stacked SGD
        over the networks' parameter slabs and either a single shared data
        loader (the default — every point trains on this setup's batch
        stream, enabling shared im2col) or per-point loaders when
        ``point_setups`` carry differing seeds (``per_point_seed`` sweeps).
        All setups must agree on every hyper-parameter except the seed.
        """
        networks = list(networks)
        setups = list(point_setups) if point_setups is not None else [self] * len(networks)
        if len(setups) != len(networks):
            raise ConfigurationError(
                f"{len(networks)} networks but {len(setups)} point setups"
            )
        for setup in setups:
            shared = (
                setup.batch_size, setup.learning_rate, setup.momentum,
                setup.weight_decay, setup.eval_interval, setup.evaluate_during_training,
            )
            if shared != (
                self.batch_size, self.learning_rate, self.momentum,
                self.weight_decay, self.eval_interval, self.evaluate_during_training,
            ):
                raise ConfigurationError(
                    "lockstep training requires point setups that differ only in seed"
                )
        stack = NetworkStack(networks)
        optimizer = LockstepSGD(
            stack.parameters,
            lr=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        if len({setup._loader_seed for setup in setups}) == 1:
            loaders = setups[0].make_loader()
        else:
            loaders = [setup.make_loader() for setup in setups]
        return LockstepTrainer(
            stack,
            optimizer,
            loaders,
            eval_data=self.test_dataset.arrays() if self.evaluate_during_training else None,
            callbacks=callbacks_per_point,
            eval_interval=self.eval_interval,
        )

    # -------------------------------------------------------------- helpers
    def train_network(self, network: Sequential, iterations: int) -> float:
        """Train ``network`` for ``iterations`` steps and return its test accuracy.

        The trainer carries no held-out split: the network is evaluated once,
        by the :meth:`evaluate` whose value is returned.  In-run evaluation
        is a pure inference pass, so the trained weights are the same bytes
        as with ``evaluate_during_training`` on.
        """
        trainer = replace(self, evaluate_during_training=False).trainer_factory(network)
        trainer.run(iterations)
        return self.evaluate(network)

    def evaluate(self, network: Sequential) -> float:
        """Test accuracy of ``network`` on the held-out split.

        Predicts at the training ``batch_size``, so evaluation holds no more
        activation memory than a training step.
        """
        inputs, targets = self.test_dataset.arrays()
        logits = network.predict(inputs, batch_size=self.batch_size)
        return accuracy(logits, targets)


def train_baseline(workload: Workload, *, seed: Optional[int] = None) -> Tuple[Sequential, float, TrainingSetup]:
    """Train the dense baseline network of a workload.

    Returns ``(network, accuracy, setup)`` so follow-up phases reuse the same
    datasets and hyper-parameters.
    """
    setup = TrainingSetup.from_workload(workload)
    network = workload.build(seed if seed is not None else workload.scale.seed)
    baseline_accuracy = setup.train_network(network, workload.scale.baseline_iterations)
    return network, baseline_accuracy, setup
