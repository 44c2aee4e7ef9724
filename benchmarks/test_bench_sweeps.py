"""Sweep-throughput benchmark: the process-pool engine vs the serial path.

Measures one multi-point λ group-deletion sweep (the Figure 8 workload shape)
from a shared trained baseline under two execution policies of the engine:

* ``serial`` — ``SweepEngine()``: the points run inline, one at a time.
* ``parallel`` — ``SweepEngine(workers=2)``: the same point tasks fanned
  over two worker processes, each on single-threaded BLAS.

Each policy runs ``REPEATS`` times, alternating which goes first, and the
record carries the median of each.  The correctness gate is bit-identical serial↔parallel
points; the pool's speed over serial is recorded in ``benchmark.extra_info``
and in ``BENCH_sweeps.json`` via ``benchmarks/run_benchmarks.py``, whose
``--check`` fails when the pool is slower than serial.

The benchmark runs the fast in-repo MLP workload at the ``tiny`` scale so it
stays affordable inside CI.
"""

from __future__ import annotations

import statistics
import time

from bench_utils import run_once
from repro.experiments import (
    ExperimentContext,
    SweepEngine,
    execute_spec,
    mlp_workload,
    spec_for_workload,
    train_baseline,
)

STRENGTHS = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08]
REPEATS = 3


def collect_sweep_stats():
    """Sweep timings/speedups as a flat dict (shared with run_benchmarks)."""
    workload = mlp_workload("tiny")
    network, baseline_accuracy, setup = train_baseline(workload)
    context = ExperimentContext(
        workload=workload, setup=setup, baseline_network=network
    )

    def timed(engine):
        spec = spec_for_workload(
            "sweep",
            workload,
            method="group_deletion",
            grid=tuple(STRENGTHS),
            include_small_matrices=True,
            engine=engine,
        )
        start = time.perf_counter()
        sweep = execute_spec(spec, context=context).result
        return sweep, time.perf_counter() - start

    # Serial runs first on even repeats and the pool first on odd ones, so
    # neither side alone absorbs a first-run cost.
    sweeps, times = {}, {1: [], 2: []}
    for repeat in range(REPEATS):
        for workers in (1, 2) if repeat % 2 == 0 else (2, 1):
            sweeps[workers], elapsed = timed(SweepEngine(workers=workers))
            times[workers].append(elapsed)
    serial_sweep = sweeps[1]

    # Correctness gate: parallelism must not change a single bit.
    assert serial_sweep.points == sweeps[2].points

    t_serial = statistics.median(times[1])
    t_parallel = statistics.median(times[2])
    return {
        "points": len(STRENGTHS),
        "repeats": REPEATS,
        "routing_cache_hits": serial_sweep.routing_cache_stats.get("hits", 0),
        "routing_cache_misses": serial_sweep.routing_cache_stats.get("misses", 0),
        "serial_engine_s": t_serial,
        "parallel_engine_s": t_parallel,
        "parallel_speedup": t_serial / t_parallel,
    }


def test_sweep_throughput(benchmark):
    stats = run_once(benchmark, collect_sweep_stats)
    benchmark.extra_info.update(
        {k: round(v, 4) if isinstance(v, float) else v for k, v in stats.items()}
    )
