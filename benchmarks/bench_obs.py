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

The record holds both medians, their ratio ``overhead_ratio = null_obs_s /
obs_s``, and ``median_pair_ratio``, the median over the pairs of each pair's
own ``null_obs_s / obs_s``.  Both are throughput ratios.  The two runs of a
pair are back to back, so a drift of the host's run level cancels inside a
pair, while it can move one side's median past the other's.  ``python
benchmarks/run_benchmarks.py --suite obs --check`` fails when
``median_pair_ratio`` falls below 0.9.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from bench_utils import _SRC  # noqa: F401  (puts src/ on sys.path)
from repro.experiments import execute_spec
from repro.experiments.registry import REGISTRY
from repro.obs import NULL_OBS, MetricsRegistry, Observability, Tracer

PRESET = "figure8"
SCALE = "tiny"
PAIRS = 10


def alternate_pairs(timed: Callable[[bool, int], float]):
    """``(null_times, obs_times)`` of ``PAIRS`` back-to-back run pairs.

    ``timed(instrumented, index)`` runs once and returns its wall time.  The
    ``NULL_OBS`` run goes first in even pairs and second in odd ones.
    """
    null_times, obs_times = [], []
    for index in range(PAIRS):
        for instrumented in ((True, False) if index % 2 else (False, True)):
            times = obs_times if instrumented else null_times
            times.append(timed(instrumented, index))
    return null_times, obs_times


def pair_statistics(null_times: List[float], obs_times: List[float]) -> Dict[str, float]:
    """Both medians, their ratio, and the median of the per-pair ratios."""
    null_s = statistics.median(null_times)
    obs_s = statistics.median(obs_times)
    ratios = [null / obs for null, obs in zip(null_times, obs_times)]
    return {
        "null_obs_s": null_s,
        "obs_s": obs_s,
        "overhead_ratio": null_s / obs_s,
        "median_pair_ratio": statistics.median(ratios),
    }


def collect_obs_stats():
    """Wall times with and without observability (shared with run_benchmarks)."""
    spec = REGISTRY.get(PRESET, scale=SCALE)
    with tempfile.TemporaryDirectory() as scratch:
        traces = Path(scratch)

        def timed(instrumented: bool, index: int) -> float:
            obs = NULL_OBS
            if instrumented:
                obs = Observability(
                    metrics=MetricsRegistry(),
                    tracer=Tracer(traces / f"traces-{index}.jsonl"),
                )
            start = time.perf_counter()
            execute_spec(spec, obs=obs)
            return time.perf_counter() - start

        timed(False, -1)  # untimed warm-up
        null_times, obs_times = alternate_pairs(timed)
    return {
        "preset": PRESET,
        "scale": SCALE,
        "pairs": PAIRS,
        **pair_statistics(null_times, obs_times),
    }
