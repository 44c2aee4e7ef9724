"""Device-level crossbar simulation: hardware-fidelity inference.

The analytical hardware layer (:mod:`repro.hardware.area`,
:mod:`repro.hardware.routing`) answers "how big is the deleted design?".
This module answers the question the paper's deployment story ultimately
hinges on: *what accuracy does a rank-clipped / group-deleted network
actually achieve when it executes on memristor crossbars* — with finite
conductance precision, analog programming/read noise, defective cells, and
ADC-quantized column currents.

Execution model
---------------
Every crossbar matrix of a network (as extracted by
:func:`~repro.hardware.mapper.extract_crossbar_matrices`, oriented
inputs × outputs) is *programmed* onto the tiles of its
:class:`~repro.hardware.tiling.TilingPlan`:

1. each weight is split into a **differential conductance pair**
   ``(g⁺, g⁻) = (max(w, 0), max(-w, 0)) / s`` with the per-matrix scale
   ``s = max|W|``, so one column is realised by two bitlines read
   differentially;
2. with ``bits=B`` each conductance snaps to one of ``2^B − 1`` uniformly
   spaced levels (write quantization);
3. programming non-idealities perturb the stored conductances —
   multiplicative (``program_noise``) and additive
   (``program_noise_additive``) Gaussian write errors, clamped at zero
   conductance;
4. a ``fault_rate`` fraction of cells is stuck: ``stuck_on_fraction`` of the
   faults at full conductance (``g = 1``), the rest at zero.  Fault
   placement is a pure function of ``(seed, matrix name)``;
5. ``read_noise`` models a static multiplicative read-path gain error per
   cell, drawn from its own deterministic stream.

Inference then swaps every weighted layer's matmul for simulated tile MVMs:
activations hit each tile row-block, per-tile column currents are quantized
by an auto-ranging ``adc_bits``-bit ADC, and the partial sums accumulate
digitally across tile rows.  Biases and all parameter-free layers (ReLU,
pooling, flatten, softmax at the loss) stay digital, as in mixed-signal
accelerators.

Determinism
-----------
Every stochastic draw comes from a stream keyed by
``(config.seed, matrix name, purpose)`` via SHA-256 — never from global
state — so results are bit-reproducible across processes, across
re-programming, and regardless of evaluation order.  Networks
simulated with equal seeds see the *same* noise streams (the controlled
comparison the experiment pipeline wants); pass distinct seeds for
independent device instances.  The ADC auto-ranges per conversion (per
input row and tile), so its quantization is invariant to batch chunking by
construction; across different ``batch_size`` choices only BLAS kernel
selection can perturb the underlying matmuls at the last-ulp level —
results are always bit-stable for a fixed chunking.

The corner pass (see Driver) cannot move a byte either: every row of a
batch is computed independently, the batches are those of
``ProgrammedNetwork.predict`` with the same ``batch_size``, a shared
lowering is the same matrix each corner would build, and OpenBLAS's GEMM
gives the same bytes on one thread as on several, so where a run of
batches executes (in-process or in a worker pinned to one BLAS thread)
does not matter.

The ideal configuration (``HardwareConfig.ideal()``: infinite precision, no
noise, no faults, no ADC) reproduces :meth:`Sequential.predict` within
float64 round-off — guarded by ``tests/test_hardware_sim.py``.

Driver
------
:class:`ProgrammedNetwork` is the one driver: it programs every matrix once
and :meth:`ProgrammedNetwork.predict` runs inference against the stored
conductances.  :func:`simulate_predict` is a one-shot wrapper over it.
``predict(reference=True)`` swaps the vectorized tile MVM for the naive
per-tile loop (:func:`_mvm_tiles`), which is the benchmark baseline and the
test oracle.

:func:`simulate_evaluate` scores a list of corners in one batch-major pass.
It programs every corner once, on one shared mapper, and walks the test
split batch by batch.  When the network starts with a conv, each batch is
lowered through ``F.im2col`` once and the read-only matrix is handed to
every corner's forward; each corner keeps only its per-batch arg-max
classes, and its score, the accuracy of their concatenation, is the float
``accuracy(predict(...), targets)`` gives.  The batches are cut into
contiguous runs aligned to ``batch_size``, one per CPU in the process's
affinity mask and no more than there are batches.  Two or more runs go to
a fork-context process pool whose initializer pins each worker's OpenBLAS
to one thread and receives the programmed corners and the inputs through
``initargs``, which fork inherits without pickling; a task carries only
``(start, stop)`` and returns per-corner class arrays.  With one run, no
``fork`` start method, or a lost worker (``BrokenProcessPool``), the runs
left run in-process.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.hardware.mapper import NetworkMapper, extract_crossbar_matrices
from repro.hardware.tiling import TilingPlan
from repro.nn import functional as F
from repro.nn.dtype import as_float
from repro.nn.layers import Conv2D, Linear, LowRankConv2D, LowRankLinear
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential
from repro.utils import usable_cpus
from repro.utils.blas import pin_worker_blas
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

logger = get_logger("hardware.sim")

_CONV = (Conv2D, LowRankConv2D)
_WEIGHTED = (Linear, LowRankLinear) + _CONV

_MAX_BITS = 32


# ----------------------------------------------------------------- config
def _as_finite_float(name: str, value) -> float:
    """Coerce a config field to a finite float, failing with the typed error."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a number, got {value!r}"
        ) from None
    if not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class HardwareConfig:
    """Non-ideality knobs of one simulated crossbar device corner.

    Attributes
    ----------
    bits:
        Write precision: conductances snap to ``2^bits − 1`` uniform levels.
        ``None`` keeps continuous (ideal) conductances.
    program_noise:
        Std of the multiplicative Gaussian write error,
        ``g ← g · (1 + σ·ε)``.
    program_noise_additive:
        Std of the additive Gaussian write error in normalized conductance
        units (``g ← g + σ·ε``); unlike the multiplicative term it also
        perturbs zero cells.
    read_noise:
        Std of the static per-cell multiplicative read-path gain error.
        Applied after faults (a stuck cell is still read through a noisy
        sense path).
    fault_rate:
        Probability that a physical cell is stuck.  Each half of a
        differential pair faults independently.
    stuck_on_fraction:
        Fraction of stuck cells pinned at full conductance (``g = 1``);
        the remainder are stuck off (``g = 0``).
    adc_bits:
        Resolution of the per-tile column-current ADC (signed,
        auto-ranging on the observed full scale).  ``None`` keeps analog
        partial sums.  The quantizer is sign-symmetric — ``2^B + 1`` codes
        spanning ``±full_scale`` — rather than the two's-complement
        ``[-2^(B−1), 2^(B−1)−1]`` range, trading one extra code for a
        bias-free transfer curve.
    seed:
        Root of every noise/fault stream (see module docstring).
    """

    bits: Optional[int] = None
    program_noise: float = 0.0
    program_noise_additive: float = 0.0
    read_noise: float = 0.0
    fault_rate: float = 0.0
    stuck_on_fraction: float = 0.5
    adc_bits: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("bits", "adc_bits"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                    raise ConfigurationError(f"{name} must be an int or None, got {value!r}")
                if not (1 <= value <= _MAX_BITS):
                    raise ConfigurationError(
                        f"{name} must be in [1, {_MAX_BITS}], got {value}"
                    )
                object.__setattr__(self, name, int(value))
        for name in ("program_noise", "program_noise_additive", "read_noise"):
            value = _as_finite_float(name, getattr(self, name))
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        for name in ("fault_rate", "stuck_on_fraction"):
            value = _as_finite_float(name, getattr(self, name))
            if not (0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def ideal(cls, seed: int = 0) -> "HardwareConfig":
        """The no-op device: infinite precision, no noise, no faults, no ADC."""
        return cls(seed=seed)

    @property
    def is_ideal(self) -> bool:
        """True when simulation reduces to exact (float) crossbar arithmetic."""
        return (
            self.bits is None
            and self.program_noise == 0.0
            and self.program_noise_additive == 0.0
            and self.read_noise == 0.0
            and self.fault_rate == 0.0
            and self.adc_bits is None
        )

    @property
    def label(self) -> str:
        """Compact corner name used as the column key in results/artifacts."""
        if self.is_ideal:
            return "ideal"
        parts = []
        if self.bits is not None:
            parts.append(f"b{self.bits}")
        if self.program_noise:
            parts.append(f"pn{self.program_noise:g}")
        if self.program_noise_additive:
            parts.append(f"an{self.program_noise_additive:g}")
        if self.read_noise:
            parts.append(f"rn{self.read_noise:g}")
        if self.fault_rate:
            parts.append(f"f{self.fault_rate:g}")
            if self.stuck_on_fraction != 0.5:
                parts.append(f"so{self.stuck_on_fraction:g}")
        if self.adc_bits is not None:
            parts.append(f"adc{self.adc_bits}")
        if self.seed:
            parts.append(f"s{self.seed}")
        return "-".join(parts)

    # ------------------------------------------------------- serialization
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (what experiment specs and artifacts embed)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> "HardwareConfig":
        """Rebuild from :meth:`as_dict` output; unknown keys fail loudly."""
        payload = dict(payload or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown HardwareConfig field(s) {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**payload)


# ------------------------------------------------------------- programming
def _stream(seed: int, name: str, purpose: str) -> np.random.Generator:
    """Deterministic per-(seed, matrix, purpose) generator (process-stable)."""
    digest = hashlib.sha256(f"{seed}|{name}|{purpose}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class ProgrammedMatrix:
    """One crossbar matrix after programming: the device-effective weights.

    ``weights`` is the weight-domain matrix the tiles realise,
    ``scale · (G⁺ − G⁻)`` with every configured write non-ideality folded
    in; the MVM kernels tile it according to ``plan``.
    """

    name: str
    plan: TilingPlan
    scale: float
    weights: np.ndarray = field(repr=False)
    stuck_on: int = 0
    stuck_off: int = 0

    @property
    def num_cells(self) -> int:
        """Physical memristor count (two cells per matrix entry)."""
        return 2 * self.plan.total_cells


def program_matrix(
    values: np.ndarray,
    plan: TilingPlan,
    config: HardwareConfig,
    *,
    name: str = "",
) -> ProgrammedMatrix:
    """Program a crossbar matrix into differential conductance pairs.

    Applies, in order: differential split and per-matrix normalization,
    B-bit write quantization, multiplicative/additive programming noise,
    stuck-at faults, and the static read-path gain error — each drawn from
    its own deterministic stream (see the module docstring).
    """
    values = as_float(values)
    if values.shape != (plan.matrix_rows, plan.matrix_cols):
        raise ShapeError(
            f"matrix shape {values.shape} does not match tiling plan "
            f"{plan.matrix_rows}x{plan.matrix_cols}"
        )
    name = name or plan.name or "matrix"
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if scale == 0.0:
        scale = 1.0
    g_plus = np.maximum(values, 0.0) / scale
    g_minus = np.maximum(-values, 0.0) / scale

    if config.bits is not None:
        levels = float(2**config.bits - 1)
        g_plus = np.round(g_plus * levels) / levels
        g_minus = np.round(g_minus * levels) / levels

    if config.program_noise or config.program_noise_additive:
        rng = _stream(config.seed, name, "program")
        if config.program_noise:
            g_plus = g_plus * (1.0 + config.program_noise * rng.standard_normal(g_plus.shape))
            g_minus = g_minus * (1.0 + config.program_noise * rng.standard_normal(g_minus.shape))
        if config.program_noise_additive:
            g_plus = g_plus + config.program_noise_additive * rng.standard_normal(g_plus.shape)
            g_minus = g_minus + config.program_noise_additive * rng.standard_normal(g_minus.shape)
        np.maximum(g_plus, 0.0, out=g_plus)
        np.maximum(g_minus, 0.0, out=g_minus)

    stuck_on = stuck_off = 0
    if config.fault_rate:
        rng = _stream(config.seed, name, "faults")
        for g in (g_plus, g_minus):
            stuck = rng.random(g.shape) < config.fault_rate
            pinned_on = rng.random(g.shape) < config.stuck_on_fraction
            on_mask = stuck & pinned_on
            off_mask = stuck & ~pinned_on
            g[on_mask] = 1.0
            g[off_mask] = 0.0
            stuck_on += int(on_mask.sum())
            stuck_off += int(off_mask.sum())

    if config.read_noise:
        rng = _stream(config.seed, name, "read")
        g_plus = g_plus * (1.0 + config.read_noise * rng.standard_normal(g_plus.shape))
        g_minus = g_minus * (1.0 + config.read_noise * rng.standard_normal(g_minus.shape))
        np.maximum(g_plus, 0.0, out=g_plus)
        np.maximum(g_minus, 0.0, out=g_minus)

    effective = (g_plus - g_minus) * scale
    return ProgrammedMatrix(
        name=name,
        plan=plan,
        scale=scale,
        weights=np.ascontiguousarray(effective),
        stuck_on=stuck_on,
        stuck_off=stuck_off,
    )


# -------------------------------------------------------------- MVM kernels
#: Target element count of one ADC partial chunk (~2 MB of float64) in the
#: chunked per-row-block loop, which bounds the partials held at once.  Chunk
#: boundaries cannot change results — the ADC ranges per conversion (row).
_ADC_CHUNK_ELEMENTS = 1 << 18

#: Ceiling on ``grid_rows · rows · cols`` (~16 MB of float64) below which the
#: ADC path materializes every tile row-block's partials in one batched
#:  matmul + one vectorized quantize call (the fat-kernel regime for the
#: many-tile fully-connected stages); above it, a chunked per-row-block loop
#: bounds memory.  Selection depends only on the plan and the batch.
_ADC_BATCH_ELEMENTS = 1 << 21

#: Element count of one slice of conversions the quantizer works through at
#: a time (~1 MB of float64), so its per-column peak passes and its
#: scale/round/rescale passes reread a cache-resident slice instead of
#: streaming a many-MB batch once per tile column.  Slices split between
#: conversions, so their boundaries cannot change results.
_ADC_SLICE_ELEMENTS = 1 << 17


def _adc_quantize(partials: np.ndarray, grid_cols: int, tile_cols: int, adc_bits: int) -> np.ndarray:
    """Per-conversion signed ADC over column currents, **in place**.

    ``partials`` is a C-contiguous ``(..., cols)`` array whose last axis
    covers ``grid_cols`` tiles of ``tile_cols`` columns.  Each analog read
    converts one input row's currents through one tile's ADC, auto-ranging
    on that conversion's peak current — so the quantization step is
    ``max|currents| / 2^(adc_bits−1)`` per ``(row, tile)`` and every row is
    quantized independently (the quantization itself is invariant to batch
    chunking).  All-zero conversions pass through as zeros.

    The peak is ranged one tile column at a time: an ``abs`` + ``maximum``
    pass over each strided column ``blocks[..., j]`` spans every conversion
    of a slice at once, where a ``max``/``min`` reduction over the last axis
    runs its inner loop over a single 4–64-wide tile row.  ``abs`` and
    ``maximum`` are exact, so the peak is the same value as
    ``max(max(x), -min(x))`` and every code is the same bytes.
    """
    conversions = partials.reshape(-1, grid_cols, tile_cols)
    slice_rows = max(1, _ADC_SLICE_ELEMENTS // (grid_cols * tile_cols))
    levels = float(2 ** (adc_bits - 1))
    for start in range(0, conversions.shape[0], slice_rows):
        blocks = conversions[start : start + slice_rows]
        full_scale = np.abs(blocks[..., 0])
        column = np.empty_like(full_scale)
        for j in range(1, tile_cols):
            np.abs(blocks[..., j], out=column)
            np.maximum(full_scale, column, out=full_scale)
        full_scale = full_scale[..., None]
        # Zero-current conversions hold only zeros; a unit dummy scale keeps
        # them exactly zero through the scale/round/rescale passes.  The peak
        # code is ``fs · (levels/fs) = levels·(1 ± 2⁻⁵²)``, which rounds back
        # to ``levels`` exactly, so no clip pass is needed.
        np.copyto(full_scale, 1.0, where=full_scale <= 0)
        inverse_step = levels / full_scale
        step = full_scale
        step /= levels
        blocks *= inverse_step
        np.rint(blocks, out=blocks)
        blocks *= step
    return partials


def _mvm_tiles(x: np.ndarray, programmed: ProgrammedMatrix, config: HardwareConfig) -> np.ndarray:
    """Naive per-tile MVM loop (reference path; also handles padded plans)."""
    plan = programmed.plan
    weights = programmed.weights
    out = np.zeros((x.shape[0], plan.matrix_cols), dtype=np.result_type(x, weights))
    for _, _, row_slice, col_slice in plan.iter_tiles():
        partial = x[:, row_slice] @ weights[row_slice, col_slice]
        if config.adc_bits is not None:
            # One tile: a single column group for the shared quantizer.
            _adc_quantize(partial, 1, partial.shape[1], config.adc_bits)
        out[:, col_slice] += partial
    return out


def _mvm_blocked(x: np.ndarray, programmed: ProgrammedMatrix, config: HardwareConfig) -> np.ndarray:
    """Vectorized tile MVM.

    Without an ADC the digital accumulation over tile row-blocks is exact, so
    the whole array collapses to one GEMM against the device-effective matrix
    (every write non-ideality is already folded into the weights).  With an
    ADC, one GEMM per tile *row-block* produces that block's column currents
    for every tile column at once; the per-tile quantization is vectorized
    across the row, and partial sums accumulate digitally.
    """
    plan = programmed.plan
    if plan.padded:
        return _mvm_tiles(x, programmed, config)
    weights = programmed.weights
    if config.adc_bits is None:
        return x @ weights
    tile_rows = plan.tile_rows
    cols = plan.matrix_cols
    rows = x.shape[0]
    if plan.grid_rows * rows * cols <= _ADC_BATCH_ELEMENTS:
        x_blocks = x.reshape(rows, plan.grid_rows, tile_rows).transpose(1, 0, 2)
        w_blocks = weights.reshape(plan.grid_rows, tile_rows, cols)
        partials = np.matmul(x_blocks, w_blocks)  # (grid_rows, rows, cols)
        _adc_quantize(partials, plan.grid_cols, plan.tile_cols, config.adc_bits)
        return partials.sum(axis=0)
    out = np.empty((rows, cols), dtype=np.result_type(x, weights))
    chunk = max(32, _ADC_CHUNK_ELEMENTS // max(1, cols))
    for start in range(0, x.shape[0], chunk):
        x_chunk = x[start : start + chunk]
        accumulator = np.zeros((x_chunk.shape[0], cols), dtype=out.dtype)
        for block in range(plan.grid_rows):
            row_slice = slice(block * tile_rows, (block + 1) * tile_rows)
            partial = x_chunk[:, row_slice] @ weights[row_slice, :]
            accumulator += _adc_quantize(
                partial, plan.grid_cols, plan.tile_cols, config.adc_bits
            )
        out[start : start + chunk] = accumulator
    return out


def simulate_mvm(
    x: np.ndarray,
    programmed: ProgrammedMatrix,
    config: HardwareConfig,
    *,
    reference: bool = False,
) -> np.ndarray:
    """Simulated crossbar product ``x @ W_effective`` with per-tile ADC.

    ``reference=True`` forces the naive per-tile Python loop (the benchmark
    baseline and test oracle); the default blocked path is numerically
    equivalent.
    """
    x = as_float(x)
    if x.ndim != 2 or x.shape[1] != programmed.plan.matrix_rows:
        raise ShapeError(
            f"expected activations of shape (rows, {programmed.plan.matrix_rows}), "
            f"got {x.shape}"
        )
    if reference:
        return _mvm_tiles(x, programmed, config)
    return _mvm_blocked(x, programmed, config)


# ------------------------------------------------------------------ driver
def _lower(layer, value: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """A conv layer's ``F.im2col`` of its input: ``(cols, out_h, out_w)``."""
    return F.im2col(value, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding)


@contextmanager
def _inference(network: Sequential):
    """Run ``network`` in inference mode, restoring each layer's flag after."""
    saved = [layer.training for layer in network]
    network.eval()
    try:
        yield
    finally:
        for layer, flag in zip(network, saved):
            layer.training = flag


class ProgrammedNetwork:
    """A network programmed onto simulated crossbar hardware.

    Programs every crossbar matrix once at construction (tiling plans come
    from ``mapper``, memoized per shape) and serves repeated
    :meth:`predict` calls against the stored conductances — mirroring a
    deployed accelerator, where inference never reprograms the arrays.
    """

    def __init__(
        self,
        network: Sequential,
        config: HardwareConfig,
        *,
        mapper: Optional[NetworkMapper] = None,
    ):
        self.network = network
        self.config = config
        self.mapper = mapper if mapper is not None else NetworkMapper()
        self.stages: Dict[str, Dict[str, ProgrammedMatrix]] = {}
        for matrix in extract_crossbar_matrices(network):
            plan = self.mapper.plan_matrix(matrix)
            self.stages.setdefault(matrix.layer_name, {})[matrix.stage] = program_matrix(
                matrix.values, plan, config, name=matrix.name
            )

    # -------------------------------------------------------------- stats
    def total_crossbars(self) -> int:
        """Number of physical crossbar tiles across all programmed matrices."""
        return sum(
            pm.plan.num_crossbars
            for stages in self.stages.values()
            for pm in stages.values()
        )

    def stuck_cells(self) -> Tuple[int, int]:
        """Total ``(stuck_on, stuck_off)`` cell counts across the design."""
        on = sum(pm.stuck_on for s in self.stages.values() for pm in s.values())
        off = sum(pm.stuck_off for s in self.stages.values() for pm in s.values())
        return on, off

    # ------------------------------------------------------------ forward
    def _simulate_conv(
        self, layer, cols: np.ndarray, out_h: int, out_w: int, reference: bool
    ) -> np.ndarray:
        """A conv layer on its lowered input; ``cols`` is only read."""
        stages = self.stages[layer.name]
        config = self.config
        if isinstance(layer, LowRankConv2D):
            mid = simulate_mvm(cols, stages["v"], config, reference=reference)
            out = simulate_mvm(mid, stages["u"], config, reference=reference)
        else:
            out = simulate_mvm(cols, stages["w"], config, reference=reference)
        # Every MVM path returns a fresh C-contiguous array, so the bias
        # lands in place.
        if layer.bias is not None:
            F.add_conv_bias(out, layer.bias.data, out_h * out_w)
        n = cols.shape[0] // (out_h * out_w)
        return out.reshape(n, out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)

    def _simulate_weighted(self, layer, value: np.ndarray, reference: bool) -> np.ndarray:
        if isinstance(layer, _CONV):
            return self._simulate_conv(layer, *_lower(layer, value), reference)
        stages = self.stages[layer.name]
        if isinstance(layer, LowRankLinear):
            mid = simulate_mvm(value, stages["v"], self.config, reference=reference)
            out = simulate_mvm(mid, stages["u"], self.config, reference=reference)
        else:
            out = simulate_mvm(value, stages["w"], self.config, reference=reference)
        if layer.bias is not None:
            out += layer.bias.data
        return out

    def _forward(
        self,
        x: np.ndarray,
        reference: bool,
        lowered: Optional[Tuple[np.ndarray, int, int]] = None,
    ) -> np.ndarray:
        """Simulated logits of one batch.

        ``lowered`` is the first layer's :func:`_lower` of ``x`` when the
        network starts with a conv; the corner pass lowers each batch once
        and hands the same read-only matrix to every corner.
        """
        layers = list(self.network)
        value = as_float(x)
        if lowered is not None:
            value = self._simulate_conv(layers.pop(0), *lowered, reference)
        for layer in layers:
            if isinstance(layer, _WEIGHTED):
                value = self._simulate_weighted(layer, value, reference)
            else:
                value = layer.forward(value)
        return value

    def predict(
        self,
        inputs: np.ndarray,
        *,
        batch_size: Optional[int] = None,
        reference: bool = False,
    ) -> np.ndarray:
        """Simulated inference logits (inference mode enforced and restored)."""
        with _inference(self.network):
            if batch_size is None:
                return self._forward(inputs, reference)
            chunks = [
                self._forward(inputs[start : start + batch_size], reference)
                for start in range(0, inputs.shape[0], batch_size)
            ]
            return np.concatenate(chunks, axis=0)


def program_network(
    network: Sequential,
    config: HardwareConfig,
    *,
    mapper: Optional[NetworkMapper] = None,
) -> ProgrammedNetwork:
    """Program ``network`` onto simulated crossbars (see :class:`ProgrammedNetwork`)."""
    return ProgrammedNetwork(network, config, mapper=mapper)


def simulate_predict(
    network: Sequential,
    inputs: np.ndarray,
    config: HardwareConfig,
    *,
    mapper: Optional[NetworkMapper] = None,
    batch_size: Optional[int] = None,
    reference: bool = False,
) -> np.ndarray:
    """Hardware-fidelity inference logits of ``network`` under ``config``.

    One-shot convenience over :class:`ProgrammedNetwork`; reuse a programmed
    network when evaluating many batches.
    """
    programmed = ProgrammedNetwork(network, config, mapper=mapper)
    return programmed.predict(inputs, batch_size=batch_size, reference=reference)


# -------------------------------------------------------------- corner pass
def _batch_classes(corners: Sequence[ProgrammedNetwork], batch: np.ndarray) -> List[np.ndarray]:
    """Every corner's arg-max classes on one batch.

    All corners run one network, so a first conv's lowering depends only on
    the batch: it is built once, made read-only and shared.
    """
    first = next(iter(corners[0].network), None)
    lowered = None
    if isinstance(first, _CONV):
        lowered = _lower(first, as_float(batch))
        lowered[0].flags.writeable = False
    return [
        np.argmax(corner._forward(batch, reference=False, lowered=lowered), axis=1)
        for corner in corners
    ]


def _run_classes(
    corners: Sequence[ProgrammedNetwork],
    inputs: np.ndarray,
    batch_size: int,
    start: int,
    stop: int,
) -> List[np.ndarray]:
    """Per-corner classes of the batches of ``inputs[start:stop]``."""
    batches = [
        _batch_classes(corners, inputs[begin : min(begin + batch_size, stop)])
        for begin in range(start, stop, batch_size)
    ]
    return [np.concatenate(per_corner) for per_corner in zip(*batches)]


def _batch_runs(samples: int, batch_size: int, cpus: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` runs of whole batches, at most one per CPU."""
    batches = -(-samples // batch_size)
    runs = min(cpus, batches)
    cuts = [batch_size * (batches * index // runs) for index in range(runs + 1)]
    return [(cuts[index], min(cuts[index + 1], samples)) for index in range(runs)]


#: ``(corners, inputs, batch_size)`` of the pass a forked worker serves.
_WORKER_PASS: Optional[Tuple[Sequence[ProgrammedNetwork], np.ndarray, int]] = None


def _start_pass_worker(
    corners: Sequence[ProgrammedNetwork], inputs: np.ndarray, batch_size: int
) -> None:
    """Pool initializer; fork hands it the parent's objects unpickled."""
    global _WORKER_PASS
    pin_worker_blas()
    _WORKER_PASS = (corners, inputs, batch_size)


def _worker_classes(start: int, stop: int) -> List[np.ndarray]:
    """Pool task: the per-corner classes of one run of batches."""
    corners, inputs, batch_size = _WORKER_PASS
    return _run_classes(corners, inputs, batch_size, start, stop)


def _corner_pass(
    corners: Sequence[ProgrammedNetwork], inputs: np.ndarray, batch_size: int
) -> List[np.ndarray]:
    """Each corner's classes over all of ``inputs``, runs split across CPUs."""
    runs = _batch_runs(inputs.shape[0], batch_size, usable_cpus())
    done: Dict[int, List[np.ndarray]] = {}
    if len(runs) > 1 and "fork" in mp.get_all_start_methods():
        try:
            with ProcessPoolExecutor(
                max_workers=len(runs),
                mp_context=mp.get_context("fork"),
                initializer=_start_pass_worker,
                initargs=(corners, inputs, batch_size),
            ) as pool:
                futures = [pool.submit(_worker_classes, *run) for run in runs]
                for index, future in enumerate(futures):
                    done[index] = future.result()
        except BrokenProcessPool as error:
            logger.warning(
                "corner pass lost a worker (%s); running %d of %d runs in-process",
                error,
                len(runs) - len(done),
                len(runs),
            )
    classes = [
        done[index] if index in done else _run_classes(corners, inputs, batch_size, *run)
        for index, run in enumerate(runs)
    ]
    return [np.concatenate(per_corner) for per_corner in zip(*classes)]


def simulate_evaluate(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    configs: Sequence[HardwareConfig],
    *,
    mapper: Optional[NetworkMapper] = None,
    batch_size: Optional[int] = None,
) -> Dict[str, float]:
    """Simulated test accuracy of ``network`` under each device corner.

    Returns ``{config.label: accuracy}`` in ``configs`` order.  Every corner
    is programmed once on the shared ``mapper`` and all of them are scored
    in one batch-major pass, split across the CPUs (see the module
    docstring); each score is the float ``accuracy(predict(...), targets)``
    gives for that corner.
    """
    labels = [config.label for config in configs]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"hardware corners must have distinct labels, got {labels}")
    samples = inputs.shape[0]
    if samples == 0 or len(targets) != samples:
        raise ShapeError(
            f"expected a non-empty test split with one target per sample, got "
            f"{samples} samples and {len(targets)} targets"
        )
    if not labels:
        return {}
    if mapper is None:
        mapper = NetworkMapper()
    corners = [ProgrammedNetwork(network, config, mapper=mapper) for config in configs]
    batch_size = samples if batch_size is None else check_positive_int(batch_size, "batch_size")
    with _inference(network):
        classes = _corner_pass(corners, inputs, batch_size)
    return {label: accuracy(found, targets) for label, found in zip(labels, classes)}
