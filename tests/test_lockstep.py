"""Lockstep training parity tests.

The contract under test: K-point lockstep training — stacked forward/backward,
stacked-state SGD, per-point-λ group Lasso — is **bit-identical** to K
independent serial :class:`~repro.nn.trainer.Trainer` runs, for MLP and conv
architectures, with and without regularizers, including mid-run pruning-mask
application (a same-shape re-bind the slabs absorb).  A stack is fixed for
its lifetime: a point whose parameters change shape, or that asks to re-bind
its optimizer, raises ``TrainingError`` naming the point.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    CrossbarGroupLasso,
    GroupConnectionDeleter,
    GroupDeletionConfig,
    LockstepCrossbarGroupLasso,
    convert_to_lowrank,
    derive_network_groups,
    run_lockstep_deletion,
)
from repro.data import ArrayDataset, DataLoader, make_gaussian_blobs, make_mnist_like
from repro.data.transforms import train_test_statistics
from repro.exceptions import LayerError, TrainingError
from repro.models import ConvNetConfig, build_convnet, build_mlp
from repro.nn import (
    SGD,
    Callback,
    Conv2D,
    Dropout,
    Flatten,
    Linear,
    LockstepSGD,
    LockstepTrainer,
    MaxPool2D,
    NetworkStack,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    StackedParameter,
    Trainer,
)
from repro.nn.parameter import Parameter

K = 3
LOADER_SEED = 17


@pytest.fixture(scope="module")
def blob_data():
    train, test = make_gaussian_blobs(
        num_classes=4, num_features=12, samples_per_class=30, separation=4.0, seed=5
    )
    mean, std = train.inputs.mean(), train.inputs.std()
    return (
        ArrayDataset((train.inputs - mean) / std, train.targets),
        ArrayDataset((test.inputs - mean) / std, test.targets),
    )


@pytest.fixture(scope="module")
def image_data():
    train, test = make_mnist_like(
        train_samples=64, test_samples=32, image_size=8, seed=3
    )
    return train_test_statistics(train, test)


def build_conv_net(seed):
    return Sequential(
        [
            Conv2D(1, 4, 3, padding=1, name="conv1", rng=seed),
            ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(4, 6, 3, name="conv2", rng=seed + 40),
            ReLU(name="relu2"),
            Flatten(name="flatten"),
            Linear(6 * 2 * 2, 10, name="fc", rng=seed + 80),
        ]
    )


def serial_run(
    network,
    train_set,
    *,
    iterations,
    lr=0.05,
    regularizers=(),
    callbacks=(),
    eval_data=None,
    eval_interval=10,
    weight_decay=0.0,
):
    loader = DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED)
    optimizer = SGD(
        network.parameters(), lr=lr, momentum=0.9, weight_decay=weight_decay
    )
    trainer = Trainer(
        network,
        SoftmaxCrossEntropy(),
        optimizer,
        loader,
        eval_data=eval_data,
        callbacks=list(callbacks),
        eval_interval=eval_interval,
    )
    for regularizer in regularizers:
        trainer.add_regularizer(regularizer)
    trainer.run(iterations)
    return trainer


def lockstep_run(
    networks,
    train_set,
    *,
    iterations,
    lr=0.05,
    regularizers=(),
    callbacks=(),
    eval_data=None,
    eval_interval=10,
    weight_decay=0.0,
    loaders=None,
):
    stack = NetworkStack(networks)
    optimizer = LockstepSGD(
        stack.parameters, lr=lr, momentum=0.9, weight_decay=weight_decay
    )
    if loaders is None:
        loaders = DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED)
    trainer = LockstepTrainer(
        stack,
        optimizer,
        loaders,
        eval_data=eval_data,
        callbacks=callbacks,
        eval_interval=eval_interval,
    )
    for regularizer in regularizers:
        trainer.add_regularizer(regularizer)
    trainer.run(iterations)
    trainer.finalize()
    return trainer


def assert_networks_identical(serial_nets, lockstep_nets):
    for serial_net, lockstep_net in zip(serial_nets, lockstep_nets):
        for (name, a), (_, b) in zip(
            serial_net.named_parameters(), lockstep_net.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
            if a.mask is None:
                assert b.mask is None
            else:
                np.testing.assert_array_equal(a.mask, b.mask, err_msg=name)


def assert_histories_identical(serial_trainers, lockstep_trainer):
    for serial, history in zip(serial_trainers, lockstep_trainer.histories):
        assert serial.history.loss == history.loss
        assert serial.history.penalty == history.penalty
        assert serial.history.eval_iterations == history.eval_iterations
        assert serial.history.eval_accuracy == history.eval_accuracy


class TestLockstepParity:
    def test_mlp_bit_identical(self, blob_data):
        train_set, test_set = blob_data
        serial_nets = [build_mlp(12, [16, 10], 4, rng=seed) for seed in range(K)]
        lock_nets = [copy.deepcopy(n) for n in serial_nets]
        serial = [
            serial_run(
                n, train_set, iterations=23, eval_data=test_set.arrays(),
                weight_decay=1e-4,
            )
            for n in serial_nets
        ]
        trainer = lockstep_run(
            lock_nets, train_set, iterations=23, eval_data=test_set.arrays(),
            weight_decay=1e-4,
        )
        assert_networks_identical(serial_nets, lock_nets)
        assert_histories_identical(serial, trainer)

    def test_conv_bit_identical(self, image_data):
        train_set, test_set = image_data
        serial_nets = [build_conv_net(seed) for seed in range(K)]
        lock_nets = [copy.deepcopy(n) for n in serial_nets]
        serial = [
            serial_run(n, train_set, iterations=12, eval_data=test_set.arrays())
            for n in serial_nets
        ]
        trainer = lockstep_run(
            lock_nets, train_set, iterations=12, eval_data=test_set.arrays()
        )
        assert_networks_identical(serial_nets, lock_nets)
        assert_histories_identical(serial, trainer)

    def test_lowrank_conv_with_per_point_lambda_lasso(self, image_data):
        train_set, _ = image_data
        base = convert_to_lowrank(build_conv_net(9))
        serial_nets = [copy.deepcopy(base) for _ in range(K)]
        lock_nets = [copy.deepcopy(base) for _ in range(K)]
        lambdas = [0.01, 0.04, 0.09]
        serial = [
            serial_run(
                net,
                train_set,
                iterations=14,
                regularizers=[
                    CrossbarGroupLasso(
                        derive_network_groups(net, include_small_matrices=True), lam
                    )
                ],
            )
            for net, lam in zip(serial_nets, lambdas)
        ]
        stack = NetworkStack(lock_nets)
        grouped = [
            derive_network_groups(net, include_small_matrices=True)
            for net in lock_nets
        ]
        optimizer = LockstepSGD(stack.parameters, lr=0.05, momentum=0.9)
        trainer = LockstepTrainer(
            stack,
            optimizer,
            DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED),
        )
        trainer.add_regularizer(LockstepCrossbarGroupLasso(stack, grouped, lambdas))
        trainer.run(14)
        trainer.finalize()
        assert_networks_identical(serial_nets, lock_nets)
        for serial_trainer, history in zip(serial, trainer.histories):
            assert serial_trainer.history.penalty == history.penalty

    def test_zero_strength_point_in_grid(self, blob_data):
        """A λ=0 baseline point keeps the whole stack bit-identical to serial."""
        train_set, _ = blob_data
        base = convert_to_lowrank(build_mlp(12, [16, 10], 4, rng=3))
        serial_nets = [copy.deepcopy(base) for _ in range(3)]
        lock_nets = [copy.deepcopy(base) for _ in range(3)]
        lambdas = [0.0, 0.04, 0.09]
        serial = [
            serial_run(
                net,
                train_set,
                iterations=12,
                regularizers=[
                    CrossbarGroupLasso(
                        derive_network_groups(net, include_small_matrices=True), lam
                    )
                ],
            )
            for net, lam in zip(serial_nets, lambdas)
        ]
        stack = NetworkStack(lock_nets)
        grouped = [
            derive_network_groups(net, include_small_matrices=True) for net in lock_nets
        ]
        trainer = LockstepTrainer(
            stack,
            LockstepSGD(stack.parameters, lr=0.05, momentum=0.9),
            DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED),
            regularizers=[LockstepCrossbarGroupLasso(stack, grouped, lambdas)],
        )
        trainer.run(12)
        trainer.finalize()
        assert_networks_identical(serial_nets, lock_nets)
        for serial_trainer, history in zip(serial, trainer.histories):
            assert serial_trainer.history.penalty == history.penalty

    def test_per_point_loaders(self, blob_data):
        """Independent per-point data streams (per_point_seed) stay bit-identical."""
        train_set, _ = blob_data
        seeds = [101, 202, 303]
        serial_nets = [build_mlp(12, [14], 4, rng=s) for s in range(K)]
        lock_nets = [copy.deepcopy(n) for n in serial_nets]
        for net, seed in zip(serial_nets, seeds):
            loader = DataLoader(train_set, batch_size=16, shuffle=True, rng=seed)
            optimizer = SGD(net.parameters(), lr=0.05, momentum=0.9)
            Trainer(net, SoftmaxCrossEntropy(), optimizer, loader).run(15)
        loaders = [
            DataLoader(train_set, batch_size=16, shuffle=True, rng=seed)
            for seed in seeds
        ]
        lockstep_run(lock_nets, train_set, iterations=15, loaders=loaders)
        assert_networks_identical(serial_nets, lock_nets)

    @pytest.mark.parametrize("per_point", [False, True])
    def test_points_predict_at_their_loader_batch_size(self, blob_data, monkeypatch, per_point):
        train_set, test_set = blob_data
        batch_sizes = []
        predict = Sequential.predict

        def spy(network, inputs, batch_size=None):
            batch_sizes.append(batch_size)
            return predict(network, inputs, batch_size=batch_size)

        monkeypatch.setattr(Sequential, "predict", spy)
        loaders = (
            [DataLoader(train_set, batch_size=8, rng=seed) for seed in (1, 2)]
            if per_point
            else DataLoader(train_set, batch_size=16, rng=1)
        )
        networks = [build_mlp(12, [8], 4, rng=s) for s in range(2)]
        lockstep_run(
            networks, train_set, iterations=10, eval_data=test_set.arrays(), loaders=loaders
        )
        assert batch_sizes == [8 if per_point else 16] * 2


class _MaskCallback(Callback):
    """Install a point-specific pruning mask on fc1 mid-run (set_mask re-binds data)."""

    def __init__(self, point_index, at_iteration=4):
        self.point_index = point_index
        self.at_iteration = at_iteration

    def on_iteration_end(self, trainer, iteration):
        if iteration != self.at_iteration:
            return
        weight = trainer.network.get_layer("fc1").weight
        mask = np.ones(weight.data.shape, dtype=bool)
        mask[self.point_index :: 3] = False
        weight.set_mask(mask)


class _ClipCallback(Callback):
    """Halve fc1's rank mid-run (a shape-changing restructure)."""

    def __init__(self, at_iteration=5, rebind=True):
        self.at_iteration = at_iteration
        self.rebind = rebind

    def on_iteration_end(self, trainer, iteration):
        if iteration != self.at_iteration:
            return
        layer = trainer.network.get_layer("fc1")
        new_rank = max(1, layer.rank // 2)
        layer.set_factors(layer.u.data[:, :new_rank], layer.v.data[:, :new_rank])
        if self.rebind:
            trainer.rebind_optimizer()


def lowrank_trainer(train_set, callbacks=()):
    """A K-point lockstep trainer over copies of one low-rank MLP."""
    base = convert_to_lowrank(build_mlp(12, [16, 10], 4, rng=4))
    stack = NetworkStack([copy.deepcopy(base) for _ in range(K)])
    return LockstepTrainer(
        stack,
        LockstepSGD(stack.parameters, lr=0.05, momentum=0.9),
        DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED),
        callbacks=callbacks,
    )


class TestStructuralChanges:
    def test_mid_run_mask_application_stays_stacked(self, blob_data):
        train_set, _ = blob_data
        serial_nets = [build_mlp(12, [16, 10], 4, rng=seed) for seed in range(K)]
        lock_nets = [copy.deepcopy(n) for n in serial_nets]
        serial = [
            serial_run(
                net, train_set, iterations=16, callbacks=[_MaskCallback(index)]
            )
            for index, net in enumerate(serial_nets)
        ]
        stack = NetworkStack(lock_nets)
        trainer = LockstepTrainer(
            stack,
            LockstepSGD(stack.parameters, lr=0.05, momentum=0.9),
            DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED),
            callbacks=[[_MaskCallback(index)] for index in range(K)],
        )
        trainer.run(16)
        # Masks change no shapes: the slabs absorbed every point's re-bind.
        for k, network in enumerate(lock_nets):
            weight = network.get_layer("fc1").weight
            slab, slot = stack.slab_pair(weight)
            assert slot == k and weight.data.base is slab.data
            np.testing.assert_array_equal(slab.mask[k], weight.mask)
        trainer.finalize()
        assert_networks_identical(serial_nets, lock_nets)
        assert_histories_identical(serial, trainer)

    @pytest.mark.parametrize(
        "rebind, message",
        [(True, "cannot re-bind"), (False, "changed a parameter's shape")],
        ids=["rebind", "silent"],
    )
    def test_mid_run_shape_change_raises(self, blob_data, rebind, message):
        """A stack is fixed for its lifetime: point 1's rank clip is refused,
        whether the callback asks to re-bind or the next scan finds it."""
        train_set, _ = blob_data
        trainer = lowrank_trainer(
            train_set, callbacks=[[], [_ClipCallback(rebind=rebind)], []]
        )
        with pytest.raises(TrainingError, match=f"lockstep point 1 {message}"):
            trainer.run(18)
        assert trainer.iteration == 5  # nothing trains past the clip

    def test_rebind_optimizer_on_a_handle_raises(self, blob_data):
        train_set, _ = blob_data
        trainer = lowrank_trainer(train_set)
        with pytest.raises(TrainingError, match="lockstep point 2 "):
            trainer.points[2].rebind_optimizer()


class TestLockstepDeletionDriver:
    def test_matches_serial_deleter_per_point(self, blob_data):
        train_set, test_set = blob_data
        base = convert_to_lowrank(build_mlp(12, [16, 10], 4, rng=6))
        lambdas = [0.01, 0.05, 0.1]
        config = dict(
            iterations=20, finetune_iterations=10, include_small_matrices=True
        )

        def trainer_factory(network, callbacks=()):
            loader = DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED)
            optimizer = SGD(network.parameters(), lr=0.05, momentum=0.9)
            return Trainer(
                network, SoftmaxCrossEntropy(), optimizer, loader,
                callbacks=list(callbacks),
            )

        serial_results = []
        for lam in lambdas:
            network = copy.deepcopy(base)
            deleter = GroupConnectionDeleter(
                GroupDeletionConfig(strength=lam, **config), record_interval=8
            )
            serial_results.append(deleter.run(network, trainer_factory))

        lock_nets = [copy.deepcopy(base) for _ in lambdas]

        def lockstep_factory(networks, callbacks_per_point):
            stack = NetworkStack(networks)
            optimizer = LockstepSGD(stack.parameters, lr=0.05, momentum=0.9)
            return LockstepTrainer(
                stack,
                optimizer,
                DataLoader(train_set, batch_size=16, shuffle=True, rng=LOADER_SEED),
                callbacks=callbacks_per_point,
            )

        lock_results = run_lockstep_deletion(
            lock_nets,
            [GroupDeletionConfig(strength=lam, **config) for lam in lambdas],
            lockstep_factory,
            record_interval=8,
        )
        for serial, lock in zip(serial_results, lock_results):
            assert serial.wire_fractions() == lock.wire_fractions()
            assert serial.routing_area_fractions() == lock.routing_area_fractions()
            assert serial.deleted_groups == lock.deleted_groups
            assert serial.trace.as_dict() == lock.trace.as_dict()
        assert_networks_identical(
            [r.network for r in serial_results], [r.network for r in lock_results]
        )


class TestStackingValidation:
    def test_rejects_mixed_architectures(self):
        with pytest.raises(LayerError):
            NetworkStack([build_mlp(8, [6], 3, rng=0), build_mlp(8, [7], 3, rng=0)])

    def test_rejects_active_dropout(self):
        nets = [
            Sequential([Linear(6, 4, name="fc", rng=s), Dropout(0.5, name="drop")])
            for s in range(2)
        ]
        with pytest.raises(LayerError):
            NetworkStack(nets)

    def test_rejects_empty(self):
        with pytest.raises(LayerError):
            NetworkStack([])

    def test_callbacks_must_match_points(self, blob_data):
        train_set, _ = blob_data
        nets = [build_mlp(12, [8], 4, rng=s) for s in range(2)]
        stack = NetworkStack(nets)
        with pytest.raises(TrainingError):
            LockstepTrainer(
                stack,
                LockstepSGD(stack.parameters, lr=0.05),
                DataLoader(train_set, batch_size=16, rng=1),
                callbacks=[[]],
            )

    def test_eval_batch_size_is_not_a_setting(self, blob_data):
        train_set, _ = blob_data
        stack = NetworkStack([build_mlp(12, [8], 4, rng=s) for s in range(2)])
        with pytest.raises(TypeError):
            LockstepTrainer(
                stack,
                LockstepSGD(stack.parameters, lr=0.05),
                DataLoader(train_set, batch_size=16, rng=1),
                eval_batch_size=256,
            )

    def test_lockstep_sgd_validation(self):
        sp = StackedParameter([Parameter(np.zeros(3)), Parameter(np.zeros(3))])
        with pytest.raises(ValueError):
            LockstepSGD([])
        with pytest.raises(ValueError):
            LockstepSGD([sp, StackedParameter([Parameter(np.zeros(3))])])  # K = 2 vs 1

    def test_stacked_parameter_shape_mismatch(self):
        with pytest.raises(Exception):
            StackedParameter([Parameter(np.zeros(3)), Parameter(np.zeros(2))])


class TestStackedParameter:
    def test_aliasing_and_release(self):
        params = [Parameter(np.arange(4.0) + k) for k in range(2)]
        sp = StackedParameter(params)
        assert params[0].data.base is sp.data
        sp.data[0, 0] = 99.0
        assert params[0].data[0] == 99.0
        sp.detach_all()
        assert params[0].data.base is None
        np.testing.assert_array_equal(params[0].data, sp.data[0])

    def test_refresh_absorbs_mask(self):
        params = [Parameter(np.ones(4)) for _ in range(2)]
        sp = StackedParameter(params)
        mask = np.array([True, False, True, False])
        params[1].set_mask(mask)  # re-binds data
        assert sp.point_status(1) == "rebound"
        sp.refresh_point(1)
        assert sp.point_status(1) == "intact"
        np.testing.assert_array_equal(sp.mask[1], mask)
        np.testing.assert_array_equal(sp.data[1], np.array([1.0, 0.0, 1.0, 0.0]))


class TestStackedChannelLastGradients:
    """The stacked conv backward reads its ``grad_mat`` as a view, as the serial layers do."""

    @pytest.mark.parametrize("lowrank", [False, True], ids=["dense", "lowrank"])
    def test_figure8_shapes(self, monkeypatch, lowrank):
        # figure8's small-scale ConvNet: 16x16 RGB images, batches of 32.
        networks = [build_convnet(ConvNetConfig.small(image_size=16), rng=seed) for seed in range(K)]
        if lowrank:
            networks = [convert_to_lowrank(network) for network in networks]
        seen = []
        backward_conv = NetworkStack._backward_conv

        def spy(stack, step, grad, need_input):
            seen.append((step.layer.name, grad.transpose(0, 2, 3, 1).flags.c_contiguous))
            return backward_conv(stack, step, grad, need_input)

        monkeypatch.setattr(NetworkStack, "_backward_conv", spy)
        rng = np.random.default_rng(9)
        train_set = ArrayDataset(
            rng.standard_normal((32, 3, 16, 16)), rng.integers(0, 10, size=32)
        )
        stack = NetworkStack(networks)
        trainer = LockstepTrainer(
            stack,
            LockstepSGD(stack.parameters, lr=0.05, momentum=0.9),
            DataLoader(train_set, batch_size=32, shuffle=False),
        )
        trainer.train_step()
        assert [name for name, _ in seen] == ["conv3", "conv2", "conv1"]
        assert all(view for _, view in seen), seen
