"""Observability overhead benchmark: an instrumented figure8 run vs ``NULL_OBS``.

``repro.obs`` is opt-in: the default :data:`~repro.obs.NULL_OBS` makes every
instrument a no-op.  This suite holds the enabled side to a bound on a real
experiment run.  figure8 at ``--scale tiny`` runs once untimed as a warm-up,
then ``PAIRS`` alternating pairs of :func:`repro.experiments.execute_spec`:
one run with ``NULL_OBS`` and one with a live
:class:`~repro.obs.MetricsRegistry` plus a file-backed
:class:`~repro.obs.Tracer`.  The order inside a pair alternates, so host
drift falls on both sides alike.  No run has a store, so every run
recomputes every node.

The record holds both medians and ``overhead_ratio = null_obs_s / obs_s``, a
throughput ratio.  ``python benchmarks/run_benchmarks.py --suite obs
--check`` fails when it falls below 0.9.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from bench_utils import _SRC  # noqa: F401  (puts src/ on sys.path)
from repro.experiments import execute_spec
from repro.experiments.registry import REGISTRY
from repro.obs import NULL_OBS, MetricsRegistry, Observability, Tracer

PRESET = "figure8"
SCALE = "tiny"
PAIRS = 10


def collect_obs_stats():
    """Median wall time with and without observability (shared with run_benchmarks)."""
    spec = REGISTRY.get(PRESET, scale=SCALE)
    with tempfile.TemporaryDirectory() as scratch:
        traces = Path(scratch)

        def timed(obs) -> float:
            start = time.perf_counter()
            execute_spec(spec, obs=obs)
            return time.perf_counter() - start

        def instrumented(index: int) -> Observability:
            return Observability(
                metrics=MetricsRegistry(),
                tracer=Tracer(traces / f"traces-{index}.jsonl"),
            )

        timed(NULL_OBS)
        null_times, obs_times = [], []
        for index in range(PAIRS):
            if index % 2:
                obs_times.append(timed(instrumented(index)))
                null_times.append(timed(NULL_OBS))
            else:
                null_times.append(timed(NULL_OBS))
                obs_times.append(timed(instrumented(index)))
    null_s = statistics.median(null_times)
    obs_s = statistics.median(obs_times)
    return {
        "preset": PRESET,
        "scale": SCALE,
        "pairs": PAIRS,
        "null_obs_s": null_s,
        "obs_s": obs_s,
        "overhead_ratio": null_s / obs_s,
    }
