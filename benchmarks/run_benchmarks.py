#!/usr/bin/env python
"""Standalone benchmark runner emitting JSON trajectory files.

Runs the engine benchmarks outside pytest and appends one record per run to a
JSON trajectory file per suite, so performance can be tracked across commits:

    python benchmarks/run_benchmarks.py                   # every registered suite
    python benchmarks/run_benchmarks.py --suite kernels   # one suite
    python benchmarks/run_benchmarks.py --list            # suite names, one per line
    python benchmarks/run_benchmarks.py --check           # non-zero exit on regression

The ``SUITES`` registry below is the single source of truth for suite names:
``--suite`` choices, the CI loop in ``ci/run_ci.sh`` (which iterates
``--list`` output), and ``python -m repro bench`` all read it, so the three
can never drift.

The kernel records carry the per-kernel reference/vectorized timings (ms),
the speedups, and the ``map_network`` throughput numbers.  The sweep records
carry the median serial-engine and two-worker parallel-engine wall-clock of a
multi-point λ sweep.  The lockstep
records carry the serial-per-point vs lockstep-stacked training wall-clock of
the λ sweep's point phase and the end-to-end sweep.  The hardware records
carry the crossbar simulator's per-tile-loop vs vectorized inference time,
and the obs records the median figure8 wall-clock with and without
observability plus the median of the per-pair throughput ratios.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_utils import _SRC  # noqa: F401,E402  (puts src/ on sys.path)

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _base_record() -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _append(output: Path, record: dict) -> None:
    trajectory = []
    if output.exists():
        try:
            trajectory = json.loads(output.read_text())
        except json.JSONDecodeError:
            print(f"warning: {output} held invalid JSON; starting a fresh trajectory")
        if not isinstance(trajectory, list):
            trajectory = [trajectory]
    trajectory.append(record)
    output.write_text(json.dumps(trajectory, indent=2) + "\n")


def run_kernels(output: Path, check: bool) -> int:
    from test_bench_kernels import collect_kernel_stats, map_network_stats

    record = _base_record()
    record.update({k: round(v, 4) if isinstance(v, float) else v
                   for k, v in collect_kernel_stats().items()})
    record.update({k: round(v, 4) for k, v in map_network_stats().items()})
    _append(output, record)

    print(f"kernel benchmark ({record['timestamp']}) -> {output}")
    for key in ("conv_speedup", "maxpool_speedup", "avgpool_speedup", "total_speedup"):
        print(f"  {key:<22} {record[key]:.2f}x")
    print(f"  map_network warm       {record['map_network_warm_ms']:.3f} ms "
          f"({record['maps_per_second_warm']:.0f} maps/s)")

    # Warm-allocator-regime threshold (see test_bench_kernels.py): the
    # steady-state combined speedup band is 1.6-1.8x.
    if check and record["total_speedup"] < 1.4:
        print("FAIL: combined conv+pool speedup fell below 1.4x", file=sys.stderr)
        return 1
    return 0


def run_sweeps(output: Path, check: bool) -> int:
    from test_bench_sweeps import collect_sweep_stats

    record = _base_record()
    record.update({k: round(v, 4) if isinstance(v, float) else v
                   for k, v in collect_sweep_stats().items()})
    _append(output, record)

    print(f"sweep benchmark ({record['timestamp']}) -> {output}")
    print(f"  serial engine          {record['serial_engine_s']:.2f} s "
          f"({record['points']} lambda points, median of {record['repeats']})")
    print(f"  parallel engine (2w)   {record['parallel_engine_s']:.2f} s "
          f"({record['parallel_speedup']:.2f}x serial)")

    if check and record["parallel_speedup"] < 1.0:
        print("FAIL: the 2-worker pool ran the sweep slower than serial",
              file=sys.stderr)
        return 1
    return 0


def run_lockstep(output: Path, check: bool) -> int:
    from test_bench_lockstep import collect_lockstep_stats

    record = _base_record()
    record.update({k: round(v, 4) if isinstance(v, float) else v
                   for k, v in collect_lockstep_stats().items()})
    _append(output, record)

    print(f"lockstep benchmark ({record['timestamp']}) -> {output}")
    print(f"  serial points          {record['serial_points_s']:.2f} s "
          f"({record['points']} lambda points)")
    print(f"  lockstep points        {record['lockstep_points_s']:.2f} s "
          f"({record['lockstep_speedup']:.2f}x)")
    print(f"  sweep end-to-end       {record['sweep_serial_s']:.2f} s -> "
          f"{record['sweep_lockstep_s']:.2f} s ({record['sweep_speedup']:.2f}x)")

    if check and record["lockstep_speedup"] < 2.0:
        print("FAIL: lockstep training speedup fell below 2x", file=sys.stderr)
        return 1
    return 0


def run_hardware(output: Path, check: bool) -> int:
    from bench_hardware import collect_hardware_stats

    record = _base_record()
    record.update({k: round(v, 4) if isinstance(v, float) else v
                   for k, v in collect_hardware_stats().items()})
    _append(output, record)

    print(f"hardware benchmark ({record['timestamp']}) -> {output}")
    print(f"  programming            {record['program_s']:.2f} s "
          f"({record['networks']} networks x {record['crossbars_per_network']} crossbars)")
    print(f"  per-tile reference     {record['reference_s']:.2f} s")
    print(f"  serial vectorized      {record['serial_vectorized_s']:.2f} s "
          f"({record['serial_speedup']:.2f}x)")

    if check and record["serial_speedup"] < 4.0:
        print("FAIL: vectorized crossbar-simulator speedup fell below 4x", file=sys.stderr)
        return 1
    return 0


def run_obs(output: Path, check: bool) -> int:
    from bench_obs import collect_obs_stats

    record = _base_record()
    record.update({k: round(v, 4) if isinstance(v, float) else v
                   for k, v in collect_obs_stats().items()})
    _append(output, record)

    print(f"observability benchmark ({record['timestamp']}) -> {output}")
    print(f"  NULL_OBS               {record['null_obs_s']:.3f} s "
          f"({record['preset']} {record['scale']}, median of {record['pairs']})")
    print(f"  metrics + tracing      {record['obs_s']:.3f} s "
          f"(ratio of medians {record['overhead_ratio']:.3f}, "
          f"median pair ratio {record['median_pair_ratio']:.3f})")

    if check and record["median_pair_ratio"] < 0.9:
        print(
            f"FAIL: the instrumented run's throughput fell below 90% of NULL_OBS "
            f"(median pair ratio {record['median_pair_ratio']:.3f})",
            file=sys.stderr,
        )
        return 1
    return 0


@dataclass(frozen=True)
class BenchmarkSuite:
    """One registered benchmark suite: runner, trajectory file, description."""

    name: str
    runner: Callable[[Path, bool], int]
    output: str
    description: str


#: Single source of truth for suite names — consumed by ``--suite``/``--list``,
#: the CI loop in ``ci/run_ci.sh``, and ``python -m repro bench``.
SUITES: "OrderedDict[str, BenchmarkSuite]" = OrderedDict(
    (suite.name, suite)
    for suite in (
        BenchmarkSuite(
            "kernels",
            run_kernels,
            "BENCH_kernels.json",
            "conv/pool kernel and map_network micro-benchmarks",
        ),
        BenchmarkSuite(
            "sweeps",
            run_sweeps,
            "BENCH_sweeps.json",
            "serial vs 2-worker pool lambda-sweep wall-clock",
        ),
        BenchmarkSuite(
            "lockstep",
            run_lockstep,
            "BENCH_lockstep.json",
            "serial-per-point vs lockstep stacked training wall-clock",
        ),
        BenchmarkSuite(
            "hardware",
            run_hardware,
            "BENCH_hardware.json",
            "vectorized crossbar-simulator inference vs naive per-tile loop",
        ),
        BenchmarkSuite(
            "obs",
            run_obs,
            "BENCH_obs.json",
            "figure8 tiny wall-clock with metrics and tracing vs NULL_OBS",
        ),
    )
)


def suite_names() -> Tuple[str, ...]:
    """Registered suite names, in registration order."""
    return tuple(SUITES)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=suite_names() + ("all",),
        default="all",
        help="which benchmark suite(s) to run (default: all)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registered suite names (one per line) and exit",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="trajectory file to append to (only valid with a single suite; "
        "defaults to repo-root BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a suite regresses below its threshold",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in suite_names():
            print(name)
        return 0
    names = suite_names() if args.suite == "all" else (args.suite,)
    if args.output is not None and len(names) > 1:
        parser.error("--output requires a single --suite")

    status = 0
    for name in names:
        suite = SUITES[name]
        output = args.output or _REPO_ROOT / suite.output
        status = max(status, suite.runner(output, args.check))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
