"""Tests for the device-level crossbar simulator (`repro.hardware.sim`).

Covers the acceptance guards of the subsystem: ideal-device parity with
``Sequential.predict`` (1e-9 logits tolerance), bit-reproducibility of
non-ideal runs under ``HardwareConfig.seed`` and across re-programming,
agreement of the vectorized blocked MVM with the naive per-tile reference
on every branch of ``_mvm_blocked`` (padded plans included), the
per-conversion ADC quantizer, batch invariance of ``ProgrammedNetwork.predict``,
and the physics of each non-ideality (quantization, programming/read noise,
stuck faults, per-tile ADC).
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.conversion import convert_to_lowrank
from repro.exceptions import ConfigurationError, ShapeError
from repro.hardware import (
    CrossbarLibrary,
    HardwareConfig,
    NetworkMapper,
    ProgrammedNetwork,
    TechnologyParameters,
    plan_tiling,
    program_matrix,
    program_network,
    simulate_evaluate,
    simulate_mvm,
    simulate_predict,
)
from repro.hardware import sim
from repro.hardware.sim import _adc_quantize, _mvm_tiles
from repro.hardware.tiling import TilingPlan
from repro.nn import Conv2D, Flatten, Linear, MaxPool2D, ReLU, Sequential
from repro.nn.metrics import accuracy

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


def dense_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Flatten(name="f0"),
            Linear(2 * 12 * 12, 40, name="fc1", rng=rng),
            ReLU(name="r1"),
            Linear(40, 10, name="fc2", rng=rng),
        ],
        name=f"dense{seed}",
    )


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

    def test_simulate_evaluate_scores_each_corner(self, images, rng):
        targets = rng.integers(0, 10, images.shape[0])
        network = lowrank_net(0)
        mapper = tiny_mapper()
        scores = simulate_evaluate(network, images, targets, [NOISY], mapper=mapper)
        assert list(scores) == [NOISY.label]
        assert isinstance(scores[NOISY.label], float)
        logits = simulate_predict(network, images, NOISY, mapper=mapper)
        assert scores[NOISY.label] == accuracy(logits, targets)

    @pytest.mark.parametrize("build", [conv_net, lowrank_net], ids=["conv", "lowrank"])
    def test_ideal_corner_scores_like_software(self, build, images, rng):
        # The hardware stage's ideal corner must report the digital accuracy.
        targets = rng.integers(0, 10, images.shape[0])
        network = build(0)
        scores = simulate_evaluate(
            network, images, targets, [HardwareConfig.ideal()], mapper=tiny_mapper()
        )
        assert scores == {"ideal": accuracy(network.predict(images), targets)}

    def test_batch_size_does_not_change_the_score(self, images, rng):
        targets = rng.integers(0, 10, images.shape[0])
        network = lowrank_net(0)
        whole = simulate_evaluate(network, images, targets, [NOISY], mapper=tiny_mapper())
        chunked = simulate_evaluate(
            network, images, targets, [NOISY], mapper=tiny_mapper(), batch_size=5
        )
        assert chunked == whole


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

    def test_programmed_matches_tile_loop_on_both_adc_branches(self):
        """Vectorized inference over programmed arrays vs the per-tile loop.

        The input is sized so fc1's partial sums exceed the ADC batching
        budget (the chunked per-row-block loop of ``_mvm_blocked``) while
        fc2's fit it (the one-shot batched blocks).
        """
        from repro.hardware.sim import _ADC_BATCH_ELEMENTS

        network = Sequential(
            [
                Linear(64, 256, rng=0, name="fc1"),
                ReLU(name="r1"),
                Linear(256, 16, rng=10, name="fc2"),
            ],
            name="mlp",
        )
        programmed = program_network(network, NOISY, mapper=tiny_mapper())
        samples = 2560
        x = np.random.default_rng(0).standard_normal((samples, 64))
        elements = {}
        for name in ("fc1", "fc2"):
            plan = programmed.stages[name]["w"].plan
            assert not plan.padded
            elements[name] = plan.grid_rows * samples * plan.matrix_cols
        assert elements["fc1"] > _ADC_BATCH_ELEMENTS >= elements["fc2"]
        np.testing.assert_allclose(
            programmed.predict(x),
            programmed.predict(x, reference=True),
            rtol=1e-9,
            atol=1e-9,
        )

    @pytest.mark.parametrize(
        "branch",
        ["gemm-ideal", "gemm-write-noise", "adc-batched", "adc-chunked", "padded-adc"],
    )
    def test_every_blocked_branch_matches_tile_loop(self, branch, rng, monkeypatch):
        """``simulate_mvm`` vs the per-tile loop, one ``_mvm_blocked`` branch each.

        Without an ADC the tiles collapse to one GEMM; with one, small
        batches quantize every row-block in one batched call and large ones
        loop over row chunks (forced here by shrinking both budgets, so the
        41-row batch spans two chunks); padded plans fall back to the loop.
        """
        configs = {
            "gemm-ideal": HardwareConfig.ideal(),
            "gemm-write-noise": HardwareConfig(bits=5, program_noise=0.05, fault_rate=0.02),
            "adc-batched": NOISY,
            "adc-chunked": NOISY,
            "padded-adc": HardwareConfig(bits=6, read_noise=0.02, adc_bits=5, seed=1),
        }
        config = configs[branch]
        if branch == "padded-adc":
            plan = TilingPlan(50, 20, 16, 8, padded=True, name="m")
        else:
            plan = TilingPlan(48, 24, 16, 8, name="m")
        if branch == "adc-chunked":
            monkeypatch.setattr(sim, "_ADC_BATCH_ELEMENTS", 64)
            monkeypatch.setattr(sim, "_ADC_CHUNK_ELEMENTS", 16 * plan.matrix_cols)
        programmed = program_matrix(
            rng.standard_normal((plan.matrix_rows, plan.matrix_cols)), plan, config
        )
        x = rng.standard_normal((41, plan.matrix_rows))
        fast = simulate_mvm(x, programmed, config)
        slow = simulate_mvm(x, programmed, config, reference=True)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)
        if config.adc_bits is None:
            np.testing.assert_allclose(fast, x @ programmed.weights, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------- ADC model
class TestAdcQuantizer:
    """``_adc_quantize``: one auto-ranging conversion per (input row, tile)."""

    GRID_COLS, TILE_COLS = 3, 4

    def currents(self, rng, rows=6):
        return rng.standard_normal((rows, self.GRID_COLS * self.TILE_COLS))

    def quantize(self, currents, adc_bits):
        return _adc_quantize(currents.copy(), self.GRID_COLS, self.TILE_COLS, adc_bits)

    def conversions(self, array):
        return array.reshape(array.shape[0], self.GRID_COLS, self.TILE_COLS)

    @pytest.mark.parametrize("adc_bits", [2, 4, 8])
    def test_codes_are_rounded_steps_of_each_conversion(self, rng, adc_bits):
        currents = self.currents(rng)
        quantized = self.quantize(currents, adc_bits)
        levels = 2 ** (adc_bits - 1)
        step = np.abs(self.conversions(currents)).max(axis=-1, keepdims=True) / levels
        codes = self.conversions(quantized) / step
        np.testing.assert_allclose(codes, np.rint(codes), rtol=0, atol=1e-9)
        assert np.abs(codes).max() <= levels + 1e-9
        error = np.abs(self.conversions(quantized) - self.conversions(currents))
        assert (error <= 0.5 * step * (1 + 1e-9)).all()

    def test_peak_current_converts_exactly(self, rng):
        # The full-scale code maps back to the peak current bit for bit,
        # which is why the quantizer needs no clip pass.
        currents = self.currents(rng)
        quantized = self.quantize(currents, 3)
        peak = np.abs(self.conversions(currents)).argmax(axis=-1)[..., None]
        np.testing.assert_array_equal(
            np.take_along_axis(self.conversions(quantized), peak, axis=-1),
            np.take_along_axis(self.conversions(currents), peak, axis=-1),
        )

    def test_zero_conversions_stay_zero(self, rng):
        currents = self.currents(rng)
        currents[1] = 0.0
        currents[3, : self.TILE_COLS] = 0.0
        quantized = self.quantize(currents, 4)
        assert np.isfinite(quantized).all()
        np.testing.assert_array_equal(quantized[1], 0.0)
        np.testing.assert_array_equal(quantized[3, : self.TILE_COLS], 0.0)
        assert np.abs(quantized[3, self.TILE_COLS :]).max() > 0

    def test_conversions_range_independently_and_in_place(self, rng):
        # Rescaling one (row, tile) conversion moves no other conversion's
        # output: the property that makes simulated rows batch-invariant.
        currents = self.currents(rng)
        baseline = self.quantize(currents, 4)
        louder = currents.copy()
        louder[2, self.TILE_COLS : 2 * self.TILE_COLS] *= 1e3
        out = _adc_quantize(louder, self.GRID_COLS, self.TILE_COLS, 4)
        assert out is louder
        changed = np.zeros(currents.shape, dtype=bool)
        changed[2, self.TILE_COLS : 2 * self.TILE_COLS] = True
        np.testing.assert_array_equal(out[~changed], baseline[~changed])


def reduction_adc_oracle(partials, grid_cols, tile_cols, adc_bits):
    """The quantizer with each peak from ``max``/``-min`` reductions over a tile row."""
    blocks = partials.reshape(partials.shape[:-1] + (grid_cols, tile_cols))
    full_scale = np.maximum(
        blocks.max(axis=-1, keepdims=True), -blocks.min(axis=-1, keepdims=True)
    )
    full_scale[full_scale <= 0] = 1.0
    levels = float(2 ** (adc_bits - 1))
    codes = np.rint(blocks * (levels / full_scale))
    return (codes * (full_scale / levels)).reshape(partials.shape)


class TestAdcPeakRanging:
    """The per-column peak passes give the reduction oracle's bytes exactly."""

    def currents(self, rng, batch, rows, grid_cols, tile_cols):
        currents = rng.standard_normal(batch + (rows, grid_cols * tile_cols))
        flat = currents.reshape(-1, grid_cols, tile_cols)
        flat[0] = 0.0  # all-zero conversions
        flat[1] = np.where(rng.random(flat[1].shape) < 0.5, 0.0, -0.0)
        flat[2, :, tile_cols // 2] = np.nan
        flat[3] = -np.abs(flat[3])  # negative peaks
        flat[4] = np.abs(flat[4])  # positive peaks
        flat[5] *= 1e-300  # tiny currents
        return currents

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("tile_cols", [1, 4, 5, 8, 12, 25, 32, 64])
    def test_bytes_match_the_reduction_oracle(self, rng, tile_cols, batch):
        for grid_cols in range(1, 6):
            currents = self.currents(rng, batch, 7, grid_cols, tile_cols)
            for adc_bits in (1, 6, 8):
                expected = reduction_adc_oracle(currents, grid_cols, tile_cols, adc_bits)
                out = _adc_quantize(currents.copy(), grid_cols, tile_cols, adc_bits)
                assert out.tobytes() == expected.tobytes(), (grid_cols, adc_bits)

    @pytest.mark.parametrize("slice_elements", [1, 40, 97])
    def test_slices_cannot_move_a_conversion(self, rng, monkeypatch, slice_elements):
        # Slices of one, several and a ragged number of conversions.
        monkeypatch.setattr(sim, "_ADC_SLICE_ELEMENTS", slice_elements)
        currents = self.currents(rng, (2,), 9, 3, 8)
        expected = reduction_adc_oracle(currents, 3, 8, 4)
        out = _adc_quantize(currents.copy(), 3, 8, 4)
        assert out.tobytes() == expected.tobytes()

    def test_zero_and_nan_conversions(self, rng):
        currents = self.currents(rng, (), 7, 2, 4)
        flat = _adc_quantize(currents.copy(), 2, 4, 6).reshape(-1, 2, 4)
        signed_zeros = currents.reshape(-1, 2, 4)[1]
        assert not flat[0].any() and not flat[1].any()
        np.testing.assert_array_equal(np.signbit(flat[1]), np.signbit(signed_zeros))
        assert np.isnan(flat[2]).all()
        assert np.isfinite(np.delete(flat, 2, axis=0)).all()


# -------------------------------------------------------- batch invariance
class TestBatchInvariance:
    """A row's simulated logits do not depend on the rows run beside it.

    The ADC ranges per (row, tile) conversion and every other stage is
    row-wise, so chunking a batch changes nothing beyond BLAS round-off.
    """

    @pytest.mark.parametrize(
        "build", [conv_net, lowrank_net, dense_net], ids=["conv", "lowrank", "dense"]
    )
    def test_each_row_alone_matches_the_batch(self, build, images):
        programmed = program_network(build(0), NOISY, mapper=tiny_mapper())
        whole = programmed.predict(images)
        alone = np.concatenate(
            [programmed.predict(images[i : i + 1]) for i in range(images.shape[0])]
        )
        np.testing.assert_allclose(alone, whole, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("batch_size", [5, 12, 100])
    def test_batch_size_chunks_agree(self, images, batch_size):
        programmed = program_network(lowrank_net(0), NOISY, mapper=tiny_mapper())
        whole = programmed.predict(images)
        chunked = programmed.predict(images, batch_size=batch_size)
        assert chunked.shape == whole.shape
        np.testing.assert_allclose(chunked, whole, rtol=1e-9, atol=1e-9)
        if batch_size >= images.shape[0]:
            np.testing.assert_array_equal(chunked, whole)

    def test_predict_leaves_its_inputs_untouched(self, images):
        programmed = program_network(conv_net(0), NOISY, mapper=tiny_mapper())
        before = images.copy()
        programmed.predict(images)
        programmed.predict(images, reference=True)
        np.testing.assert_array_equal(images, before)

    @pytest.mark.parametrize(
        "build", [conv_net, lowrank_net, dense_net], ids=["conv", "lowrank", "dense"]
    )
    def test_biases_land_on_the_outputs_not_the_network(self, build, images):
        # Each weighted layer adds its bias in place on its MVM's fresh output.
        network = build(0)
        params = {name: p.data.copy() for name, p in network.named_parameters()}
        programmed = program_network(network, NOISY, mapper=tiny_mapper())
        first = programmed.predict(images)
        programmed.predict(images, reference=True)
        for name, param in network.named_parameters():
            np.testing.assert_array_equal(param.data, params[name])
        np.testing.assert_array_equal(programmed.predict(images), first)

    def test_training_flags_restored_when_predict_raises(self, rng):
        network = dense_net(0).train()
        programmed = program_network(network, HardwareConfig.ideal())
        with pytest.raises(ShapeError):
            programmed.predict(rng.standard_normal((3, 2, 11, 11)))
        assert all(layer.training for layer in network)


# ------------------------------------------------------------- corner pass
def padded_mlp(seed=0):
    # 67 inputs: no divisor fits a 16-wide crossbar, so fc1's plan pads.
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Linear(67, 24, name="fc1", rng=rng),
            ReLU(name="r1"),
            Linear(24, 10, name="fc2", rng=rng),
        ],
        name=f"padded{seed}",
    )


#: An ideal corner, two ADC corners and a write-noise-only corner.
CORNERS = [
    HardwareConfig.ideal(),
    NOISY,
    HardwareConfig(bits=4, program_noise=0.05, seed=1),
    HardwareConfig(bits=6, read_noise=0.02, adc_bits=5, seed=2),
]

#: ``(samples, batch_size)``: one batch, a ragged last batch, two batches.
SPLITS = [(8, 16), (23, 5), (23, 16)]


def corner_inputs(build, samples):
    shape = (samples, 67) if build is padded_mlp else (samples, 2, 12, 12)
    rng = np.random.default_rng(samples)
    return rng.standard_normal(shape), rng.integers(0, 10, samples)


@pytest.fixture
def cpus(request, monkeypatch):
    """Force the pass's CPU count (``indirect`` parameter, default 1)."""
    count = getattr(request, "param", 1)
    monkeypatch.setattr(sim, "usable_cpus", lambda: count)
    return count


@pytest.fixture
def run_log(monkeypatch, tmp_path):
    """Record ``(start, pid)`` for every run of batches, whichever process runs it."""
    run_classes = sim._run_classes

    def recording(corners, inputs, batch_size, start, stop):
        (tmp_path / f"{start}-{os.getpid()}").touch()
        return run_classes(corners, inputs, batch_size, start, stop)

    monkeypatch.setattr(sim, "_run_classes", recording)
    return lambda: sorted(
        tuple(int(part) for part in path.name.split("-")) for path in tmp_path.iterdir()
    )


class TestCornerPass:
    """``simulate_evaluate`` scores every corner in one batch-major pass.

    The oracle is each corner alone through ``ProgrammedNetwork.predict``
    with the same ``batch_size``: the pass must give its classes byte for
    byte, in-process and split across forked workers alike.
    """

    def oracle(self, network, inputs, batch_size, configs=CORNERS):
        mapper = tiny_mapper()
        return {
            config.label: np.argmax(
                ProgrammedNetwork(network, config, mapper=mapper).predict(
                    inputs, batch_size=batch_size
                ),
                axis=1,
            )
            for config in configs
        }

    def assert_oracle_scores(self, network, inputs, targets, batch_size):
        expected = {
            label: accuracy(classes, targets)
            for label, classes in self.oracle(network, inputs, batch_size).items()
        }
        scores = simulate_evaluate(
            network, inputs, targets, CORNERS, mapper=tiny_mapper(), batch_size=batch_size
        )
        assert scores == expected

    @pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("samples, batch_size", SPLITS)
    @pytest.mark.parametrize(
        "build", [conv_net, lowrank_net, padded_mlp], ids=["conv", "lowrank", "linear"]
    )
    def test_classes_match_the_per_corner_oracle(self, build, samples, batch_size, cpus):
        network = build(0)
        inputs, targets = corner_inputs(build, samples)
        corners = [ProgrammedNetwork(network, c, mapper=tiny_mapper()) for c in CORNERS]
        with sim._inference(network):
            classes = sim._corner_pass(corners, inputs, batch_size)
        expected = self.oracle(network, inputs, batch_size)
        for config, found in zip(CORNERS, classes):
            assert found.tobytes() == expected[config.label].tobytes(), config.label
        self.assert_oracle_scores(network, inputs, targets, batch_size)

    def test_the_padded_mlp_has_a_padded_plan(self):
        corner = ProgrammedNetwork(padded_mlp(0), NOISY, mapper=tiny_mapper())
        assert corner.stages["fc1"]["w"].plan.padded

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_two_workers_run_the_batches(self, cpus, run_log):
        # The pool hands each run to whichever worker is free, so the two
        # runs may share a worker; neither runs in this process.
        network = lowrank_net(0)
        inputs, targets = corner_inputs(lowrank_net, 23)
        self.assert_oracle_scores(network, inputs, targets, 5)
        runs = run_log()
        assert [start for start, _ in runs] == [0, 10]
        assert os.getpid() not in {pid for _, pid in runs}

    @pytest.mark.parametrize(
        "samples, cpu_count, runs",
        [
            (4, 2, [(0, 4)]),
            (8, 2, [(0, 5), (5, 8)]),
            (23, 2, [(0, 10), (10, 23)]),
            (23, 3, [(0, 5), (5, 15), (15, 23)]),
            (10, 4, [(0, 5), (5, 10)]),
        ],
    )
    def test_runs_are_whole_batches_one_per_cpu_at_most(self, samples, cpu_count, runs):
        assert sim._batch_runs(samples, 5, cpu_count) == runs

    @pytest.mark.parametrize("corners", [1, 3])
    def test_the_first_conv_is_lowered_once_per_batch(self, corners, cpus, monkeypatch):
        im2col = sim.F.im2col
        calls = []

        def counting(x, *args):
            calls.append(x.shape)
            return im2col(x, *args)

        monkeypatch.setattr(sim.F, "im2col", counting)
        network = conv_net(0)
        inputs, targets = corner_inputs(conv_net, 23)
        simulate_evaluate(network, inputs, targets, CORNERS[:corners], batch_size=5)
        assert calls == [(5, 2, 12, 12)] * 4 + [(3, 2, 12, 12)]

    def test_a_corner_writing_into_the_shared_lowering_raises(self, cpus, monkeypatch):
        simulate_mvm_ = sim.simulate_mvm

        def writing(x, *args, **kwargs):
            x[0, 0] = x[0, 0]
            return simulate_mvm_(x, *args, **kwargs)

        monkeypatch.setattr(sim, "simulate_mvm", writing)
        inputs, targets = corner_inputs(conv_net, 8)
        with pytest.raises(ValueError, match="read-only"):
            simulate_evaluate(conv_net(0), inputs, targets, CORNERS, batch_size=4)

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_nothing_is_pickled(self, cpus, run_log, monkeypatch):
        def refuse(self):
            raise TypeError("a network must reach the workers through fork")

        monkeypatch.setattr(Sequential, "__reduce__", refuse, raising=False)
        network = conv_net(0)
        with pytest.raises(TypeError, match="through fork"):
            pickle.dumps(network)
        inputs, targets = corner_inputs(conv_net, 23)
        self.assert_oracle_scores(network, inputs, targets, 5)
        assert os.getpid() not in {pid for _, pid in run_log()}

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_a_lost_worker_is_rerun_in_process(self, cpus, monkeypatch, caplog):
        parent = os.getpid()
        run_classes = sim._run_classes

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return run_classes(*args)

        monkeypatch.setattr(sim, "_run_classes", dying)
        network = lowrank_net(0)
        inputs, targets = corner_inputs(lowrank_net, 23)
        with caplog.at_level("WARNING", logger="repro.hardware.sim"):
            self.assert_oracle_scores(network, inputs, targets, 5)
        assert "lost a worker" in caplog.text

    def test_duplicate_labels_raise(self, images, rng):
        targets = rng.integers(0, 10, images.shape[0])
        with pytest.raises(ConfigurationError, match="distinct labels"):
            simulate_evaluate(conv_net(0), images, targets, [NOISY, NOISY])

    def test_training_flags_restored(self, images, rng):
        network = conv_net(0).train()
        targets = rng.integers(0, 10, images.shape[0])
        simulate_evaluate(network, images, targets, CORNERS, batch_size=5)
        assert all(layer.training for layer in network)


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

    A re-program restores bit-identical device state — same
    conductance-effective weights, same stuck-cell draws, same predictions —
    so a simulated accuracy never depends on when, or how often, the arrays
    were written.
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

    def test_identical_weights_program_identically(self, images):
        first = program_network(lowrank_net(0), NOISY, mapper=tiny_mapper())
        second = program_network(lowrank_net(0), NOISY, mapper=tiny_mapper())
        np.testing.assert_array_equal(first.predict(images), second.predict(images))

    def test_programming_tracks_content(self):
        # Continuous conductances, so a one-weight nudge reaches the device.
        config = HardwareConfig(program_noise=0.03, read_noise=0.01, seed=3)

        def device_weights(network):
            programmed = program_network(network, config, mapper=tiny_mapper())
            return np.concatenate(
                [
                    matrix.weights.ravel()
                    for stages in programmed.stages.values()
                    for matrix in stages.values()
                ]
            )

        network = lowrank_net(0)
        baseline = device_weights(network)
        assert np.abs(device_weights(lowrank_net(1)) - baseline).max() > 0
        parameter = network.parameters()[0]
        parameter.data = parameter.data.copy()
        parameter.data.flat[0] += 1e-6
        assert np.abs(device_weights(network) - baseline).max() > 0

    def test_different_seeds_program_differently(self, images):
        network = lowrank_net(0)
        a = program_network(network, NOISY, mapper=tiny_mapper())
        b = program_network(
            network, HardwareConfig.from_dict({**NOISY.as_dict(), "seed": 4}),
            mapper=tiny_mapper(),
        )
        assert np.abs(a.predict(images) - b.predict(images)).max() > 0
