"""Crossbar-simulator throughput benchmark: vectorized tiles vs tile loop.

Measures hardware-fidelity inference of K compressed network variants under
a non-ideal device corner (6-bit writes, programming noise, faults, 8-bit
ADC).  The networks are programmed once, untimed — deployment reprograms
nothing between evaluations — and the same conductances then execute under
two paths of :meth:`repro.hardware.sim.ProgrammedNetwork.predict`:

* **reference** — each tile MVM a separate Python-loop step
  (``predict(reference=True)``): the naive per-tile implementation a
  straightforward port of the execution model would use.
* **serial vectorized** — the default ``predict()``: every crossbar stage's
  tile MVMs folded into blocked matmuls with the per-conversion ADC
  vectorized across whole tile row-blocks, one network after another.

The benchmark pins the regime the simulator is built for: the **large
fully-connected crossbar stages** that dominate the paper's designs (LeNet's
fc1 U/V factors are the Table 3 "big matrices"; its convolutions fit a
handful of crossbars).  A paper-width MLP pipeline of low-rank factor stages
is mapped onto a dense 8×8-crossbar library — thousands of tiles per
network — and evaluated on a test-set-sized batch, which is exactly the
shape of the experiment pipeline's hardware-eval stage.  Per-tile work there
is tiny, so the naive loop pays per-tile dispatch ~10⁴ times per network
while the blocked path runs a few dozen fat kernels.  (Convolution-heavy
mappings with huge patch counts are memory-bandwidth-bound in *any*
arrangement — both paths track DRAM speed there and the two land within
~1.3×; that regime is covered by the parity tests, not this guard.)

The acceptance bar is a ≥ 4× wall-clock speedup of the vectorized path
with per-network results numerically equivalent to the reference loop
(guarded by ``np.testing.assert_allclose`` at 1e-9).  On 8-wide tiles the
ADC's per-conversion peak decides that ratio: ranged by ``max``/``min``
reductions over each 8-wide tile row it took most of the vectorized path's
time and held the speedup at 2.3–2.7×; ranged one tile column at a time
(``repro.hardware.sim._adc_quantize``) the speedup reads 9–12× on a 2-core
x86_64 box, so a return of narrow-axis reductions fails the bar.  Both paths are warmed once and
timed best-of-``REPEATS`` (first-touch faults and allocator growth otherwise
dominate sub-second measurements).

The timing run takes tens of seconds, so it is not a pytest test: run it with
``python benchmarks/run_benchmarks.py --suite hardware [--check]``, which
appends to ``BENCH_hardware.json`` and enforces the 4× bar.  The numerical
gate (vectorized vs reference loop, both ADC execution branches) stays in
the tier-1 suite as ``tests/test_hardware_sim.py``.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import _SRC  # noqa: F401  (puts src/ on sys.path)
from repro.core.conversion import convert_to_lowrank
from repro.hardware.library import CrossbarLibrary
from repro.hardware.mapper import NetworkMapper
from repro.hardware.sim import HardwareConfig, program_network
from repro.hardware.technology import TechnologyParameters
from repro.models import build_mlp

NUM_NETWORKS = 4
SAMPLES = 96
REPEATS = 3
CONFIG = HardwareConfig(
    bits=6, program_noise=0.02, fault_rate=0.001, adc_bits=8, seed=0
)
INPUT_DIM = 784
HIDDEN = [500, 300]
CLASSES = 10


def _mapper() -> NetworkMapper:
    technology = TechnologyParameters(max_crossbar_rows=8, max_crossbar_cols=8)
    return NetworkMapper(technology=technology, library=CrossbarLibrary(technology=technology))


def collect_hardware_stats():
    """Simulator timings/speedups as a flat dict (shared with run_benchmarks)."""
    # Paper-width fully-connected stages (784-500-300-10), full-rank
    # factorized as the Scissor pipeline deploys them; weights are untrained —
    # this benchmark times execution, not learning.
    networks = [
        convert_to_lowrank(
            build_mlp(INPUT_DIM, HIDDEN, CLASSES, rng=seed),
            layers=[f"fc{i + 1}" for i in range(len(HIDDEN))],
        )
        for seed in range(NUM_NETWORKS)
    ]
    inputs = np.random.default_rng(0).standard_normal((SAMPLES, INPUT_DIM))
    mapper = _mapper()

    # Programming happens once per deployment — outside the timed region,
    # exactly as the pipeline's hardware-eval stage reuses programmed arrays
    # across repeated predict calls.  Both timed paths read the same
    # conductances, so the comparison isolates the execution model.
    t0 = time.perf_counter()
    programmed = [program_network(network, CONFIG, mapper=mapper) for network in networks]
    program_s = time.perf_counter() - t0
    tiles = programmed[0].total_crossbars()

    def run_reference():
        return [pn.predict(inputs, reference=True) for pn in programmed]

    def run_serial_vectorized():
        return [pn.predict(inputs) for pn in programmed]

    # Warm both paths once, then interleave best-of-REPEATS measurements.
    run_reference()
    run_serial_vectorized()
    reference_times, serial_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_logits = run_reference()
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        serial_logits = run_serial_vectorized()
        serial_times.append(time.perf_counter() - start)

    # Correctness gate: the vectorized simulator must agree with the
    # per-tile reference loop on every network's logits.
    for serial, reference in zip(serial_logits, reference_logits):
        np.testing.assert_allclose(serial, reference, rtol=1e-9, atol=1e-9)

    reference_s = min(reference_times)
    serial_s = min(serial_times)
    return {
        "networks": NUM_NETWORKS,
        "samples": SAMPLES,
        "crossbars_per_network": tiles,
        "program_s": program_s,
        "reference_s": reference_s,
        "serial_vectorized_s": serial_s,
        "serial_speedup": reference_s / serial_s,
    }
