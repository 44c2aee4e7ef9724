"""Tests for the device-level crossbar simulator (`repro.hardware.sim`).

Covers the acceptance guards of the subsystem: ideal-device parity with
``Sequential.predict`` (1e-9 logits tolerance), bit-reproducibility of
non-ideal runs under ``HardwareConfig.seed`` across the serial and batched
paths, agreement of the vectorized blocked MVM with the naive per-tile
reference (padded plans included), and the physics of each non-ideality
(quantization, programming/read noise, stuck faults, per-tile ADC).
"""

import numpy as np
import pytest

from repro.core.conversion import convert_to_lowrank
from repro.exceptions import ConfigurationError, ShapeError
from repro.hardware import (
    CrossbarLibrary,
    HardwareConfig,
    NetworkMapper,
    TechnologyParameters,
    network_fingerprint,
    plan_tiling,
    program_matrix,
    program_network,
    simulate_evaluate,
    simulate_mvm,
    simulate_predict,
    stacked_simulate_predict,
)
from repro.nn import Conv2D, Flatten, Linear, MaxPool2D, ReLU, Sequential

NOISY = HardwareConfig(
    bits=6, program_noise=0.03, read_noise=0.01, fault_rate=0.002, adc_bits=8, seed=3
)


def tiny_mapper(limit=16):
    technology = TechnologyParameters(max_crossbar_rows=limit, max_crossbar_cols=limit)
    return NetworkMapper(technology=technology, library=CrossbarLibrary(technology=technology))


def conv_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 6, 3, name="conv1", rng=rng),
            ReLU(name="r1"),
            MaxPool2D(2, name="p1"),
            Flatten(name="f1"),
            Linear(6 * 5 * 5, 10, name="fc1", rng=rng),
        ],
        name=f"net{seed}",
    )


def lowrank_net(seed=0):
    return convert_to_lowrank(conv_net(seed), layers=["conv1", "fc1"])


@pytest.fixture
def images(rng):
    return rng.standard_normal((12, 2, 12, 12))


# ---------------------------------------------------------------- config
class TestHardwareConfig:
    def test_ideal_flags_and_label(self):
        config = HardwareConfig.ideal()
        assert config.is_ideal
        assert config.label == "ideal"
        assert not NOISY.is_ideal
        assert NOISY.label == "b6-pn0.03-rn0.01-f0.002-adc8-s3"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HardwareConfig(bits=0)
        with pytest.raises(ConfigurationError):
            HardwareConfig(adc_bits=64)
        with pytest.raises(ConfigurationError):
            HardwareConfig(program_noise=-0.1)
        with pytest.raises(ConfigurationError):
            HardwareConfig(fault_rate=1.5)
        with pytest.raises(ConfigurationError):
            HardwareConfig(stuck_on_fraction=-0.1)

    def test_dict_round_trip(self):
        rebuilt = HardwareConfig.from_dict(NOISY.as_dict())
        assert rebuilt == NOISY
        with pytest.raises(ConfigurationError):
            HardwareConfig.from_dict({"bits": 4, "volts": 1.2})

    def test_numeric_strings_coerce_and_junk_fails_typed(self):
        # Hand-written JSON may quote numbers; junk must raise the typed
        # error (not a bare TypeError) so the CLI reports it cleanly.
        assert HardwareConfig.from_dict({"program_noise": "0.1"}).program_noise == 0.1
        with pytest.raises(ConfigurationError):
            HardwareConfig.from_dict({"program_noise": "lots"})
        with pytest.raises(ConfigurationError):
            HardwareConfig.from_dict({"fault_rate": float("nan")})

    def test_labels_distinguish_corners(self):
        corners = [
            HardwareConfig.ideal(),
            HardwareConfig(bits=4),
            HardwareConfig(bits=4, seed=1),
            HardwareConfig(bits=4, adc_bits=4),
            HardwareConfig(fault_rate=0.01),
            HardwareConfig(fault_rate=0.01, stuck_on_fraction=1.0),
        ]
        labels = [config.label for config in corners]
        assert len(set(labels)) == len(labels)


# --------------------------------------------------------- ideal parity
class TestIdealParity:
    @pytest.mark.parametrize("mapper", [None, "tiny"])
    def test_conv_net(self, images, mapper):
        network = conv_net(0)
        mapper = tiny_mapper() if mapper else None
        sim = simulate_predict(network, images, HardwareConfig.ideal(), mapper=mapper)
        np.testing.assert_allclose(sim, network.predict(images), rtol=0, atol=1e-9)

    def test_lowrank_net(self, images):
        network = lowrank_net(1)
        sim = simulate_predict(network, images, HardwareConfig.ideal(), mapper=tiny_mapper())
        np.testing.assert_allclose(sim, network.predict(images), rtol=0, atol=1e-9)

    def test_training_flags_restored(self, images):
        network = conv_net(0).train()
        simulate_predict(network, images, HardwareConfig.ideal())
        assert all(layer.training for layer in network)

    def test_dense_multi_tile(self, rng):
        network = Sequential([Linear(48, 32, rng=0, name="fc")], name="dense")
        x = rng.standard_normal((20, 48))
        sim = simulate_predict(network, x, HardwareConfig.ideal(), mapper=tiny_mapper(8))
        np.testing.assert_allclose(sim, network.predict(x), rtol=0, atol=1e-9)


# ------------------------------------------------------------ determinism
class TestDeterminism:
    def test_bit_reproducible_given_seed(self, images):
        network = lowrank_net(0)
        mapper = tiny_mapper()
        first = simulate_predict(network, images, NOISY, mapper=mapper)
        second = simulate_predict(network, images, NOISY, mapper=mapper)
        np.testing.assert_array_equal(first, second)

    def test_seed_changes_noise(self, images):
        network = lowrank_net(0)
        other = HardwareConfig.from_dict({**NOISY.as_dict(), "seed": 4})
        first = simulate_predict(network, images, NOISY)
        second = simulate_predict(network, images, other)
        assert np.abs(first - second).max() > 0

    def test_program_and_read_noise_use_distinct_streams(self):
        values = np.random.default_rng(0).standard_normal((16, 16))
        plan = plan_tiling(16, 16, name="m")
        programmed = program_matrix(values, plan, HardwareConfig(program_noise=0.05))
        read = program_matrix(values, plan, HardwareConfig(read_noise=0.05))
        assert np.abs(programmed.weights - read.weights).max() > 0

    def test_fault_placement_independent_of_noise_flags(self):
        values = np.random.default_rng(0).standard_normal((16, 16))
        plan = plan_tiling(16, 16, name="m")
        quiet = program_matrix(values, plan, HardwareConfig(fault_rate=0.3))
        noisy = program_matrix(
            values, plan, HardwareConfig(fault_rate=0.3, program_noise=0.01)
        )
        assert (quiet.stuck_on, quiet.stuck_off) == (noisy.stuck_on, noisy.stuck_off)


# ------------------------------------------------------- serial vs batched
class TestBatchedParity:
    def test_stacked_matches_serial_bitwise(self, images):
        networks = [lowrank_net(seed) for seed in range(3)]
        mapper = tiny_mapper()
        stacked = stacked_simulate_predict(networks, images, NOISY, mapper=mapper)
        for slot, network in enumerate(networks):
            serial = simulate_predict(network, images, NOISY, mapper=mapper)
            np.testing.assert_array_equal(stacked[slot], serial)

    def test_stacked_dense_ideal(self, rng):
        networks = [
            Sequential([Linear(48, 10, rng=seed, name="fc")], name=f"d{seed}")
            for seed in range(2)
        ]
        x = rng.standard_normal((8, 48))
        stacked = stacked_simulate_predict(
            networks, x, HardwareConfig.ideal(), mapper=tiny_mapper(8)
        )
        for slot, network in enumerate(networks):
            np.testing.assert_allclose(
                stacked[slot], network.predict(x), rtol=0, atol=1e-9
            )

    def test_rejects_mixed_architectures(self, images):
        with pytest.raises(ShapeError):
            stacked_simulate_predict([conv_net(0), lowrank_net(1)], images, NOISY)

    def test_simulate_evaluate_groups_and_orders(self, images, rng):
        targets = rng.integers(0, 10, images.shape[0])
        networks = [lowrank_net(0), conv_net(5), lowrank_net(1)]
        mapper = tiny_mapper()
        batched = simulate_evaluate(networks, images, targets, NOISY, mapper=mapper)
        from repro.nn.metrics import accuracy

        serial = [
            accuracy(simulate_predict(network, images, NOISY, mapper=mapper), targets)
            for network in networks
        ]
        assert batched == serial


# -------------------------------------------------- vectorized vs reference
class TestReferencePath:
    def test_blocked_matches_tile_loop(self, images):
        network = lowrank_net(0)
        mapper = tiny_mapper()
        fast = simulate_predict(network, images, NOISY, mapper=mapper)
        slow = simulate_predict(network, images, NOISY, mapper=mapper, reference=True)
        np.testing.assert_allclose(slow, fast, rtol=1e-9, atol=1e-12)

    def test_padded_plan_falls_back(self, rng):
        from repro.hardware.mapper import extract_crossbar_matrices

        # 67 is prime: no divisor fits a 16-wide crossbar, so the plan pads.
        network = Sequential([Linear(67, 10, rng=0, name="fc")], name="padded")
        mapper = tiny_mapper()
        plan = mapper.plan_matrix(extract_crossbar_matrices(network)[0])
        assert plan.padded
        x = rng.standard_normal((9, 67))
        fast = simulate_predict(network, x, NOISY, mapper=mapper)
        slow = simulate_predict(network, x, NOISY, mapper=mapper, reference=True)
        np.testing.assert_array_equal(fast, slow)
        ideal = simulate_predict(network, x, HardwareConfig.ideal(), mapper=mapper)
        np.testing.assert_allclose(ideal, network.predict(x), rtol=0, atol=1e-9)
        stacked = stacked_simulate_predict([network, network], x, NOISY, mapper=mapper)
        np.testing.assert_array_equal(stacked[0], fast)


    def test_programmed_stacked_matches_tile_loop_on_both_adc_branches(self):
        """Batched inference over programmed arrays vs the per-tile loop.

        The input is sized so fc1's partial sums exceed the ADC batching
        budget (the chunked per-row-block loop of ``_mvm_blocked``) while
        fc2's fit it (the one-shot batched blocks).
        """
        from repro.hardware.sim import _ADC_BATCH_ELEMENTS, stacked_programmed_predict

        networks = [
            Sequential(
                [
                    Linear(64, 256, rng=seed, name="fc1"),
                    ReLU(name="r1"),
                    Linear(256, 16, rng=seed + 10, name="fc2"),
                ],
                name=f"mlp{seed}",
            )
            for seed in range(2)
        ]
        mapper = tiny_mapper()
        programmed = [program_network(net, NOISY, mapper=mapper) for net in networks]
        samples = 2560
        x = np.random.default_rng(0).standard_normal((samples, 64))
        elements = {}
        for name in ("fc1", "fc2"):
            plan = programmed[0].stages[name]["w"].plan
            assert not plan.padded
            elements[name] = plan.grid_rows * samples * plan.matrix_cols
        assert elements["fc1"] > _ADC_BATCH_ELEMENTS >= elements["fc2"]
        stacked = stacked_programmed_predict(programmed, x)
        for slot, network in enumerate(programmed):
            np.testing.assert_allclose(
                stacked[slot], network.predict(x, reference=True), rtol=1e-9, atol=1e-9
            )


# ----------------------------------------------------------- non-idealities
class TestNonIdealities:
    def test_quantization_error_shrinks_with_bits(self, rng):
        values = rng.standard_normal((32, 32))
        plan = plan_tiling(32, 32, name="m")

        def error(bits):
            programmed = program_matrix(values, plan, HardwareConfig(bits=bits))
            return np.abs(programmed.weights - values).max()

        assert error(8) < error(4) < error(2)
        ideal = program_matrix(values, plan, HardwareConfig.ideal())
        assert np.abs(ideal.weights - values).max() < 1e-12

    def test_all_stuck_off_zeroes_the_matrix(self, rng):
        values = rng.standard_normal((16, 16))
        plan = plan_tiling(16, 16, name="m")
        programmed = program_matrix(
            values, plan, HardwareConfig(fault_rate=1.0, stuck_on_fraction=0.0)
        )
        assert programmed.stuck_off == 2 * values.size
        np.testing.assert_array_equal(programmed.weights, np.zeros_like(values))

    def test_all_stuck_on_cancels_differentially(self, rng):
        values = rng.standard_normal((16, 16))
        plan = plan_tiling(16, 16, name="m")
        programmed = program_matrix(
            values, plan, HardwareConfig(fault_rate=1.0, stuck_on_fraction=1.0)
        )
        assert programmed.stuck_on == 2 * values.size
        np.testing.assert_allclose(programmed.weights, 0.0, atol=1e-12)

    def test_fault_counts_track_rate(self, rng):
        values = rng.standard_normal((64, 64))
        plan = plan_tiling(64, 64, name="m")
        programmed = program_matrix(values, plan, HardwareConfig(fault_rate=0.1))
        total = programmed.stuck_on + programmed.stuck_off
        assert 0.05 * programmed.num_cells < total < 0.15 * programmed.num_cells

    def test_adc_quantizes_currents(self, rng):
        network = conv_net(0)
        x = rng.standard_normal((8, 2, 12, 12))
        mapper = tiny_mapper()
        exact = simulate_predict(network, x, HardwareConfig.ideal(), mapper=mapper)
        fine = simulate_predict(network, x, HardwareConfig(adc_bits=14), mapper=mapper)
        coarse = simulate_predict(network, x, HardwareConfig(adc_bits=2), mapper=mapper)
        np.testing.assert_allclose(fine, exact, rtol=1e-3, atol=1e-3)
        assert np.abs(coarse - exact).max() > np.abs(fine - exact).max()

    def test_simulate_mvm_shape_check(self, rng):
        values = rng.standard_normal((16, 8))
        plan = plan_tiling(16, 8, name="m")
        programmed = program_matrix(values, plan, HardwareConfig.ideal())
        with pytest.raises(ShapeError):
            simulate_mvm(rng.standard_normal((4, 9)), programmed, HardwareConfig.ideal())

    def test_programmed_network_stats(self):
        network = conv_net(0)
        programmed = program_network(
            network, HardwareConfig(fault_rate=0.05), mapper=tiny_mapper()
        )
        assert programmed.total_crossbars() > 1
        stuck_on, stuck_off = programmed.stuck_cells()
        assert stuck_on + stuck_off > 0


# ------------------------------------------------- re-programming determinism
class TestReprogrammingDeterminism:
    """Programming is a pure function of (network content, HardwareConfig).

    The serving layer's drift policy (evict + re-program after T served
    samples) is only a correctness-preserving refresh because a re-program
    restores bit-identical device state: same conductance-effective weights,
    same stuck-cell draws, same predictions.
    """

    def test_reprogram_is_bit_identical(self, images):
        network = lowrank_net(0)
        first = program_network(network, NOISY, mapper=tiny_mapper())
        second = program_network(network, NOISY, mapper=tiny_mapper())
        assert first.stuck_cells() == second.stuck_cells()
        for layer_name, stages in first.stages.items():
            for stage, matrix in stages.items():
                twin = second.stages[layer_name][stage]
                np.testing.assert_array_equal(matrix.weights, twin.weights)
                assert (matrix.stuck_on, matrix.stuck_off) == (
                    twin.stuck_on,
                    twin.stuck_off,
                )
        np.testing.assert_array_equal(first.predict(images), second.predict(images))

    def test_identical_weights_share_a_fingerprint(self):
        assert network_fingerprint(lowrank_net(0)) == network_fingerprint(lowrank_net(0))

    def test_fingerprint_tracks_content(self):
        network = lowrank_net(0)
        baseline = network_fingerprint(network)
        assert baseline != network_fingerprint(lowrank_net(1))
        parameter = network.parameters()[0]
        parameter.data = parameter.data.copy()
        parameter.data.flat[0] += 1e-6
        assert network_fingerprint(network) != baseline

    def test_different_seeds_program_differently(self, images):
        network = lowrank_net(0)
        a = program_network(network, NOISY, mapper=tiny_mapper())
        b = program_network(
            network, HardwareConfig.from_dict({**NOISY.as_dict(), "seed": 4}),
            mapper=tiny_mapper(),
        )
        assert np.abs(a.predict(images) - b.predict(images)).max() > 0
