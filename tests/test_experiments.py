"""Tests for the experiment harness (presets, workloads, tables, figures, sweeps)."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments import (
    PAPER_HEADLINE,
    SMALL,
    TINY,
    ExperimentContext,
    ExperimentScale,
    TrainingSetup,
    convnet_workload,
    crossbar_area_percent,
    execute_spec,
    get_scale,
    get_workload,
    lenet_workload,
    mean_wire_percent,
    mlp_workload,
    paper_headline_numbers,
    routing_area_percent_from_wires,
    sparsity_maps,
    spec_for_workload,
    train_baseline,
)
from repro.models.convnet import PAPER_CONVNET_RANKS, PAPER_CONVNET_SHAPES
from repro.models.lenet import PAPER_LENET_RANKS, PAPER_LENET_SHAPES
from repro.nn.network import Sequential


def run_spec(kind, workload, network, setup, accuracy=None, **fields):
    """A spec executed on a pre-trained baseline; its result view."""
    context = ExperimentContext(
        workload=workload,
        setup=setup,
        baseline_network=network,
        baseline_accuracy=accuracy,
    )
    spec = spec_for_workload(kind, workload, **fields)
    return execute_spec(spec, context=context).result


class TestPresetsAndWorkloads:
    def test_get_scale(self):
        assert get_scale("tiny") is TINY
        assert get_scale(SMALL) is SMALL
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_scale_overrides(self):
        scale = TINY.with_overrides(train_samples=10)
        assert scale.train_samples == 10
        assert scale.name == TINY.name

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(
                name="bad", train_samples=0, test_samples=1, image_size=8,
                network_scale=0.5, baseline_iterations=1, clip_iterations=1,
                clip_interval=1, deletion_iterations=1, finetune_iterations=1,
                batch_size=1, learning_rate=0.1, momentum=0.5, record_interval=1,
                eval_interval=1,
            )

    def test_workload_registry(self):
        assert get_workload("lenet", "tiny").name == "lenet-mnist"
        assert get_workload("convnet", "tiny").name == "convnet-cifar10"
        with pytest.raises(KeyError):
            get_workload("resnet")

    def test_workload_shapes_and_data(self):
        workload = lenet_workload("tiny")
        train, test = workload.data()
        assert train.inputs.shape[1:] == (1, TINY.image_size, TINY.image_size)
        assert set(workload.layer_shapes) == {"conv1", "conv2", "fc1", "fc2"}
        assert workload.clippable_layers == ("conv1", "conv2", "fc1")
        network = workload.build(0)
        assert network.forward(train.inputs[:2]).shape == (2, 10)

    def test_paper_scale_uses_paper_topology(self):
        workload = lenet_workload("paper")
        assert workload.layer_shapes == PAPER_LENET_SHAPES
        workload = convnet_workload("paper")
        assert workload.layer_shapes == PAPER_CONVNET_SHAPES

    def test_training_setup_baseline(self):
        workload = mlp_workload("tiny")
        network, accuracy, setup = train_baseline(workload)
        assert isinstance(setup, TrainingSetup)
        assert accuracy > 0.8  # blobs are easy
        assert setup.evaluate(network) == pytest.approx(accuracy)

    def test_train_baseline_evaluates_the_test_split_once(self, monkeypatch):
        workload = lenet_workload("tiny")
        predicted = []
        predict = Sequential.predict

        def counting_predict(network, inputs, batch_size=None):
            predicted.append((inputs.shape[0], batch_size))
            return predict(network, inputs, batch_size=batch_size)

        monkeypatch.setattr(Sequential, "predict", counting_predict)
        network, accuracy, setup = train_baseline(workload)
        # Evaluation predicts at the training batch size.
        assert predicted == [(len(setup.test_dataset), setup.batch_size)]
        # The same training with in-run evaluation on: the same bytes.
        reference = workload.build(workload.scale.seed)
        trainer = TrainingSetup.from_workload(workload).trainer_factory(reference)
        trainer.run(workload.scale.baseline_iterations)
        assert len(trainer.history.eval_accuracy) == 3
        assert predicted[1:] == [(len(setup.test_dataset), setup.batch_size)] * 3
        for (name, param), (_, expected) in zip(
            network.named_parameters(), reference.named_parameters()
        ):
            assert param.data.tobytes() == expected.data.tobytes(), name
        assert accuracy == setup.evaluate(reference)

    def test_evaluation_peaks_below_three_training_steps(self):
        # Evaluation predicts at the training batch size, so its transient
        # activations (conv lowering included) stay within a step's.
        workload = convnet_workload("tiny")
        setup = TrainingSetup.from_workload(workload, evaluate_during_training=False)
        network = workload.build(workload.scale.seed)
        trainer = setup.trainer_factory(network)
        peaks = []
        for work in (
            lambda: [trainer.train_step() for _ in range(3)],
            lambda: setup.evaluate(network),
        ):
            tracemalloc.start()
            try:
                work()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        steps, evaluation = peaks
        assert evaluation <= steps


class TestHeadlineNumbers:
    def test_crossbar_area_matches_paper(self):
        assert crossbar_area_percent(PAPER_LENET_SHAPES, PAPER_LENET_RANKS) == pytest.approx(
            PAPER_HEADLINE["lenet_crossbar_area_percent"], abs=0.01
        )
        assert crossbar_area_percent(PAPER_CONVNET_SHAPES, PAPER_CONVNET_RANKS) == pytest.approx(
            PAPER_HEADLINE["convnet_crossbar_area_percent"], abs=0.01
        )

    def test_routing_area_matches_paper(self):
        numbers = paper_headline_numbers()
        assert numbers.lenet_routing_area_percent == pytest.approx(
            PAPER_HEADLINE["lenet_routing_area_percent"], abs=0.1
        )
        assert numbers.convnet_routing_area_percent == pytest.approx(
            PAPER_HEADLINE["convnet_routing_area_percent"], abs=0.1
        )
        assert numbers.convnet_mean_wire_percent == pytest.approx(
            PAPER_HEADLINE["convnet_mean_wire_percent"], abs=0.1
        )
        table = numbers.format_table()
        assert "LeNet crossbar area" in table

    def test_helper_validation(self):
        with pytest.raises(ValueError):
            routing_area_percent_from_wires({})
        with pytest.raises(ValueError):
            mean_wire_percent({})


class TestTableAndFigureHarnesses:
    """End-to-end harness runs on the tiny MLP workload (fast)."""

    @pytest.fixture(scope="class")
    def baseline(self):
        workload = mlp_workload("tiny")
        network, accuracy, setup = train_baseline(workload)
        return workload, network, accuracy, setup

    def test_table1(self, baseline):
        workload, network, accuracy, setup = baseline
        result = run_spec("table1", workload, network, setup, accuracy)
        methods = [row.method for row in result.rows]
        assert methods == ["Original", "Direct LRA", "Rank clipping"]
        clipped = result.row("Rank clipping")
        original = result.row("Original")
        # Rank clipping must actually reduce at least one rank.
        full = {name: min(workload.layer_shapes[name]) for name in workload.clippable_layers}
        assert any(clipped.ranks[n] < full[n] for n in clipped.ranks)
        # Accuracy is retained within a small margin on this easy dataset.
        assert clipped.accuracy >= original.accuracy - 0.1
        assert "Table 1" in result.format_table()
        assert set(result.as_dict()) == set(methods)
        with pytest.raises(KeyError):
            result.row("nope")

    def test_table3_and_figure5(self, baseline):
        workload, network, accuracy, setup = baseline
        result = run_spec(
            "table3",
            workload,
            network,
            setup,
            accuracy,
            strength=0.05,
            include_small_matrices=True,
        )
        assert result.rows
        for row in result.rows:
            assert 0.0 <= row.wire_fraction <= 1.0
            assert row.num_crossbars >= 1
            assert row.wire_percent == pytest.approx(100 * row.wire_fraction)
        assert 0.0 <= result.mean_routing_area_fraction() <= result.mean_wire_fraction() <= 1.0
        assert "MBC size" in result.format_table()

        figure5 = run_spec(
            "figure5",
            workload,
            network,
            setup,
            strength=0.05,
            include_small_matrices=True,
        )
        assert figure5.iterations
        fractions = figure5.final_deleted_fractions()
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        assert "Figure 5" in figure5.format_series()

    def test_figure3(self, baseline):
        workload, network, accuracy, setup = baseline
        series = run_spec("figure3", workload, network, setup, accuracy)
        assert series.iterations[0] == 0
        for name, ratios in series.rank_ratio.items():
            assert ratios[0] == pytest.approx(1.0)
            assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert "Figure 3" in series.format_series()

    def test_sparsity_maps(self, baseline):
        workload, network, accuracy, setup = baseline
        from repro.core import convert_to_lowrank

        lowrank = convert_to_lowrank(network)
        maps = sparsity_maps(lowrank, include_small_matrices=True)
        assert maps
        for sparsity in maps:
            assert 0.0 <= sparsity.nonzero_fraction <= 1.0
            assert sparsity.crossbar_density.shape == (
                sparsity.mask.shape[0] // sparsity.tile_shape[0]
                + (1 if sparsity.mask.shape[0] % sparsity.tile_shape[0] else 0),
                sparsity.mask.shape[1] // sparsity.tile_shape[1]
                + (1 if sparsity.mask.shape[1] % sparsity.tile_shape[1] else 0),
            )
            assert isinstance(sparsity.ascii_sketch(), str)

    def test_sweeps(self, baseline):
        workload, network, accuracy, setup = baseline
        tolerance_sweep = run_spec(
            "sweep",
            workload,
            network,
            setup,
            accuracy,
            method="rank_clipping",
            grid=(0.02, 0.3),
        )
        assert tolerance_sweep.tolerances() == [0.02, 0.3]
        # Larger tolerance -> smaller (or equal) ranks and area.
        first, second = tolerance_sweep.points
        assert all(second.ranks[n] <= first.ranks[n] for n in first.ranks)
        assert second.total_area_fraction <= first.total_area_fraction + 1e-9
        assert len(tolerance_sweep.area_series()) == 2
        assert len(tolerance_sweep.ranks_series(list(first.ranks)[0])) == 2
        assert "Tolerance sweep" in tolerance_sweep.format_table()

        strength_sweep = run_spec(
            "sweep",
            workload,
            network,
            setup,
            method="group_deletion",
            grid=(0.005, 0.08),
            include_small_matrices=True,
        )
        weak, strong = strength_sweep.points
        assert strength_sweep.strengths() == [0.005, 0.08]
        # Stronger lambda deletes at least as many wires on average.
        assert np.mean(list(strong.wire_fractions.values())) <= np.mean(
            list(weak.wire_fractions.values())
        ) + 1e-9
        for matrix in strength_sweep.matrices():
            assert len(strength_sweep.wire_series(matrix)) == 2
            assert len(strength_sweep.routing_area_series(matrix)) == 2
        assert "Strength sweep" in strength_sweep.format_table()

    def test_sweep_validation(self, baseline):
        workload = baseline[0]
        for method in ("rank_clipping", "group_deletion"):
            with pytest.raises(ExperimentError, match="non-empty grid"):
                spec_for_workload("sweep", workload, method=method, grid=())
