"""Tests for Sequential, regularizers and the Trainer loop."""

import copy

import numpy as np
import pytest

from repro.core.conversion import convert_to_lowrank
from repro.data import ArrayDataset, DataLoader
from repro.exceptions import LayerError, TrainingError
from repro.models import ConvNetConfig, LeNetConfig, build_convnet, build_lenet, build_mlp
from repro.nn import (
    SGD,
    Callback,
    Flatten,
    GroupLassoRegularizer,
    L2Regularizer,
    Linear,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    Trainer,
    WeightGroup,
    accuracy,
)


class TestSequential:
    def test_add_and_lookup(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0), ReLU(name="relu1")])
        assert len(net) == 2
        assert net.get_layer("fc1").name == "fc1"
        assert net.layer_index("relu1") == 1
        with pytest.raises(LayerError):
            net.get_layer("missing")

    def test_duplicate_names_rejected(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0)])
        with pytest.raises(LayerError):
            net.add(Linear(3, 2, name="fc1", rng=0))

    def test_replace_layer(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0)])
        net.replace_layer("fc1", Linear(4, 3, name="fc1b", rng=1))
        assert net[0].name == "fc1b"

    def test_layers_of_type(self):
        net = build_mlp(8, [6], 3, rng=0)
        assert len(net.layers_of_type(Linear)) == 2
        assert len(net.layers_of_type(ReLU)) == 1

    def test_forward_backward_shapes(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 8))
        out = net.forward(x)
        assert out.shape == (5, 3)
        grad_in = net.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_whole_network_gradient_check(self, grad_checker):
        net = build_mlp(6, [5], 3, rng=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        targets = rng.integers(0, 3, size=4)
        loss = SoftmaxCrossEntropy()

        def value():
            return loss.forward(net.forward(x), targets)

        loss.forward(net.forward(x), targets)
        net.zero_grad()
        net.backward(loss.backward())
        for name, param in net.named_parameters():
            numeric = grad_checker(value, param.data)
            assert np.allclose(param.grad, numeric, atol=1e-6), name

    def test_predict_batches_match_full(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(1).normal(size=(10, 8))
        assert np.allclose(net.predict(x), net.predict(x, batch_size=3))

    def test_predict_classes(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(1).normal(size=(10, 8))
        classes = net.predict_classes(x)
        assert classes.shape == (10,)
        assert set(np.unique(classes)).issubset({0, 1, 2})

    def test_state_dict_roundtrip(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        net2 = build_mlp(8, [6], 3, rng=99)
        net2.load_state_dict(state)
        x = np.random.default_rng(2).normal(size=(4, 8))
        assert np.allclose(net.forward(x), net2.forward(x))

    def test_load_state_dict_strictness(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(LayerError):
            net.load_state_dict(state)
        net.load_state_dict(state, strict=False)

    def test_load_state_dict_shape_mismatch(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(LayerError):
            net.load_state_dict(state, strict=False)

    def test_output_shape_and_summary(self):
        net = build_mlp(8, [6], 3, rng=0)
        assert net.output_shape((8,)) == (3,)
        summary = net.summary((8,))
        assert "total parameters" in summary
        assert str(net.num_parameters()) in summary

    def test_train_eval_propagate(self):
        net = build_mlp(8, [6], 3, rng=0)
        net.train()
        assert all(layer.training for layer in net)
        net.eval()
        assert not any(layer.training for layer in net)


class TestRegularizers:
    def test_l2_penalty_and_gradient(self):
        net = build_mlp(4, [3], 2, rng=0)
        reg = L2Regularizer(net.parameters(), strength=0.1)
        expected = 0.05 * sum(float(np.sum(p.data**2)) for p in net.parameters())
        assert reg.penalty() == pytest.approx(expected)
        net.zero_grad()
        reg.apply_gradients()
        for param in net.parameters():
            assert np.allclose(param.grad, 0.1 * param.data)

    def test_group_lasso_penalty(self):
        from repro.nn.parameter import Parameter

        param = Parameter(np.array([[3.0, 4.0], [0.0, 0.0]]))
        groups = [
            WeightGroup(param, (0, slice(None)), "row0", "row"),
            WeightGroup(param, (1, slice(None)), "row1", "row"),
        ]
        reg = GroupLassoRegularizer(groups, strength=2.0)
        assert reg.penalty() == pytest.approx(2.0 * 5.0)
        param.zero_grad()
        reg.apply_gradients()
        assert np.allclose(param.grad[0], 2.0 * np.array([3.0, 4.0]) / 5.0)
        # All-zero group must not produce NaNs.
        assert np.all(np.isfinite(param.grad[1]))

    def test_group_lasso_gradient_matches_numerical(self, grad_checker):
        from repro.nn.parameter import Parameter

        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(4, 6)))
        groups = [WeightGroup(param, (i, slice(None)), f"row{i}", "row") for i in range(4)]
        reg = GroupLassoRegularizer(groups, strength=0.3)

        def penalty():
            return reg.penalty()

        param.zero_grad()
        reg.apply_gradients()
        assert np.allclose(param.grad, grad_checker(penalty, param.data), atol=1e-6)

    def test_zero_groups_listing(self):
        from repro.nn.parameter import Parameter

        param = Parameter(np.array([[1.0, 1.0], [1e-9, 0.0]]))
        groups = [
            WeightGroup(param, (0, slice(None)), "row0", "row"),
            WeightGroup(param, (1, slice(None)), "row1", "row"),
        ]
        reg = GroupLassoRegularizer(groups, strength=1.0)
        zeros = reg.zero_groups(threshold=1e-6)
        assert [g.label for g in zeros] == ["row1"]
        assert len(reg.group_norms()) == 2


class RecordingCallback(Callback):
    def __init__(self):
        self.begin_calls = 0
        self.end_calls = 0
        self.iterations = []

    def on_train_begin(self, trainer):
        self.begin_calls += 1

    def on_iteration_end(self, trainer, iteration):
        self.iterations.append(iteration)

    def on_train_end(self, trainer):
        self.end_calls += 1


class TestTrainer:
    def test_training_reaches_high_accuracy(self, blob_data, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(150)
        assert trainer.evaluate() > 0.9

    def test_history_records_every_iteration(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(30)
        assert trainer.history.iterations == list(range(1, 31))
        assert len(trainer.history.loss) == 30
        assert trainer.history.eval_iterations == [25]
        assert trainer.history.as_dict()["loss"] == trainer.history.loss

    def test_callbacks_invoked(self, mlp_trainer_factory, small_mlp):
        callback = RecordingCallback()
        trainer = mlp_trainer_factory(small_mlp, [callback])
        trainer.run(5)
        assert callback.begin_calls == 1
        assert callback.end_calls == 1
        assert callback.iterations == [1, 2, 3, 4, 5]

    def test_regularizer_penalty_recorded(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.add_regularizer(L2Regularizer(small_mlp.parameters(), strength=0.01))
        trainer.run(3)
        assert all(p > 0 for p in trainer.history.penalty)
        trainer.remove_regularizer(trainer.regularizers[0])
        trainer.run(2)
        assert trainer.history.penalty[-1] == 0.0

    def test_loss_decreases_on_easy_data(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(120)
        early = np.mean(trainer.history.loss[:10])
        late = np.mean(trainer.history.loss[-10:])
        assert late < early

    def test_rebind_optimizer_tracks_new_parameters(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        layer = small_mlp.get_layer("fc1")
        layer.weight.data = layer.weight.data.copy()  # replace the array object
        trainer.rebind_optimizer()
        assert any(p is layer.weight for p in trainer.optimizer.parameters)

    def test_invalid_arguments(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        with pytest.raises(TrainingError):
            trainer.run(-1)
        with pytest.raises(TrainingError):
            Trainer(
                small_mlp,
                SoftmaxCrossEntropy(),
                trainer.optimizer,
                trainer.train_loader,
                eval_interval=0,
            )

    def test_run_zero_iterations_is_noop(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        history = trainer.run(0)
        assert history.iterations == []

    def test_epoch_wraparound(self, blob_data):
        train, test = blob_data
        net = build_mlp(20, [8], 4, rng=0)
        loader = DataLoader(train, batch_size=64, shuffle=False, rng=0)
        trainer = Trainer(
            net, SoftmaxCrossEntropy(), SGD(net.parameters(), lr=0.01), loader,
            eval_data=test.arrays(),
        )
        # More iterations than batches per epoch forces the loader to restart.
        trainer.run(len(loader) * 3 + 1)
        assert trainer.iteration == len(loader) * 3 + 1


# --------------------------------------------------------------------------
# The trainer's backward stops at the first weighted layer
# --------------------------------------------------------------------------
def _tiny_convnet():
    return build_convnet(ConvNetConfig.small(image_size=8), rng=0), (3, 8, 8)


def _tiny_lenet():
    return build_lenet(LeNetConfig.small(image_size=12), rng=1), (1, 12, 12)


def _tiny_lowrank_convnet():
    return convert_to_lowrank(_tiny_convnet()[0]), (3, 8, 8)


def _mlp():
    return build_mlp(8, [6, 5], 3, rng=2), (8,)


def _flatten_first():
    # A parameter-free prefix: Flatten runs before the first weighted layer.
    layers = [Flatten(), Linear(12, 5, name="fc1", rng=3), ReLU(), Linear(5, 3, name="fc2", rng=4)]
    return Sequential(layers), (3, 2, 2)


NETWORKS = {
    "convnet": _tiny_convnet,
    "lenet": _tiny_lenet,
    "lowrank-convnet": _tiny_lowrank_convnet,
    "mlp": _mlp,
    "flatten-first": _flatten_first,
}


class TestBackwardStopsAtFirstWeightedLayer:
    """``Trainer.train_step`` skips the first weighted layer's input gradient.

    Every parameter gradient must equal, byte for byte, the one a deep copy
    gets from the full ``Sequential.backward``.
    """

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_train_step_gradients_match_full_backward(self, name):
        network, sample_shape = NETWORKS[name]()
        rng = np.random.default_rng(5)
        num_classes = network.output_shape(sample_shape)[0]
        inputs = rng.standard_normal((6,) + sample_shape)
        targets = rng.integers(0, num_classes, size=6)
        full = copy.deepcopy(network)

        loader = DataLoader(ArrayDataset(inputs, targets), batch_size=6, shuffle=False)
        trainer = Trainer(network, SoftmaxCrossEntropy(), SGD(network.parameters(), lr=0.1), loader)
        trainer.train_step()

        loss = SoftmaxCrossEntropy()
        full.train()
        full.zero_grad()
        loss.forward(full.forward(inputs), targets)
        grad_input = full.backward(loss.backward())
        assert grad_input.shape == inputs.shape

        pairs = list(zip(network.named_parameters(), full.named_parameters()))
        assert pairs
        for (name_a, param_a), (name_b, param_b) in pairs:
            assert name_a == name_b
            assert param_a.grad.tobytes() == param_b.grad.tobytes(), name_a
        # The skipped first layer and the prefix before it hold no caches.
        for layer in network:
            for attr in layer._cache_attrs:
                assert getattr(layer, attr) is None, (layer.name, attr)

    def test_sequential_backward_returns_none_without_input_grad(self):
        network, sample_shape = _flatten_first()
        x = np.random.default_rng(6).standard_normal((4,) + sample_shape)
        out = network.forward(x)
        assert network.backward(np.ones_like(out), need_input_grad=False) is None
        for layer in network:
            for attr in layer._cache_attrs:
                assert getattr(layer, attr) is None, (layer.name, attr)

    def test_parameter_free_network_only_releases_caches(self):
        network = Sequential([Flatten(), ReLU()])
        out = network.forward(np.random.default_rng(7).standard_normal((3, 2, 2)))
        assert network.backward(np.ones_like(out), need_input_grad=False) is None
        assert network[0]._input_shape is None and network[1]._mask is None
