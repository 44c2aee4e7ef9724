#!/usr/bin/env python3
"""Preset benchmark: fresh-store ``python -m repro run`` plus an outside-in trace.

usage:
    python3 perfbench/run.py --workload fig8-deletion --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, in turn

Run it from the root of a source checkout (it needs ``src/repro``).  For one
workload it starts, one child at a time (closed loop, no ``--workers``):

1. set-up children (``setup_child.py``): launch -> datasets built;
2. fresh children, until ``--seconds`` have passed: ``python -m repro run
   <spec> --store <empty dir> --quiet``, timed launch -> exit, with peak RSS
   and CPU time from ``wait4``;
3. one resume child on the first fresh store, which must compute nothing and
   return the same result payload;
4. with ``--trace 1``, one traced child (``traced.py``) for the per-layer
   metrics.

Every child has ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` pinned to
the CPUs this process may use.  A child counts as failed unless it exits 0
with no failed point and, for runs, leaves a complete, checksummed artifact
whose result payload hashes to the digest recorded in ``digests.json`` for
the workload and seed (or, for a seed with no recorded digest, to the first
fresh run's).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json under ``--trace 0`` and its per-layer metrics
under ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
DIGESTS = BENCH / "digests.json"

#: Set-up children per run; ``setup_s`` is their median.
SETUP_CHILDREN = 9
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: How often the first-point watcher looks for the journal/artifact.
POLL_S = 0.005
#: Rows of the traced top-N table.
TOP_N = 12


@dataclass(frozen=True)
class Workload:
    """A registered preset plus spec overrides (why each: see BENCHMARK.json)."""

    preset: str
    overrides: Dict = field(default_factory=dict)
    #: The traced pass fails below this share of traced wall under spans.
    min_coverage_pct: Optional[float] = None


WORKLOADS = {
    "fig8-deletion": Workload("figure8", min_coverage_pct=95.0),
    "fig7-clipping": Workload("figure7"),
    # The paper's MNIST test-split size: the simulator's largest stage.
    "hw-eval": Workload("figure_hw", {"scale_overrides": {"test_samples": 10000}}),
}

_POINTS_LINE = re.compile(r"points: (\d+) computed, (\d+) reused")


# ------------------------------------------------------------------ children
@dataclass
class Child:
    returncode: int
    launched: float
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    first_seen_s: Optional[float] = None


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.update(
        OPENBLAS_NUM_THREADS=str(blas_threads()),
        OMP_NUM_THREADS=str(blas_threads()),
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(argv, env, log_dir: Path, label: str, watch=()) -> Child:
    """Run one child to exit; wall, peak RSS and CPU come from ``wait4``.

    ``watch`` paths are polled while the child runs; the first time any of
    them exists is reported as ``first_seen_s`` (seconds after launch).
    """
    seen: List[float] = []
    stop = threading.Event()

    def poll():
        while not stop.is_set():
            if any(path.exists() for path in watch):
                seen.append(time.monotonic())
                return
            stop.wait(POLL_S)

    with open(log_dir / f"{label}.out", "w+b") as out, open(
        log_dir / f"{label}.err", "w+b"
    ) as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        poller = threading.Thread(target=poll, daemon=True) if watch else None
        if poller is not None:
            poller.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            stop.set()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if poller is not None:
            poller.join()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Child(
        returncode=proc.returncode,
        launched=launched,
        wall_s=exited - launched,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=stdout,
        stderr=stderr,
        first_seen_s=seen[0] - launched if seen else None,
    )


# ------------------------------------------------------------------ checks
def payload_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_artifact(store: Path, fingerprint: str):
    """The stored artifact, or an error string: complete, checksummed, no failures."""
    path = store / f"{fingerprint}.json"
    if not path.is_file():
        return None, f"no artifact {path.name}"
    try:
        with open(path, encoding="utf-8") as handle:
            artifact = json.load(handle)
    except json.JSONDecodeError as error:
        return None, f"artifact is not JSON ({error})"
    stored = artifact.get("payload_sha256")
    body = {key: value for key, value in artifact.items() if key != "payload_sha256"}
    if stored is None or payload_digest(body) != stored:
        return None, "artifact checksum missing or wrong"
    if not artifact.get("complete"):
        return None, "artifact not complete"
    if artifact.get("failures"):
        return None, f"artifact records {len(artifact['failures'])} failed point(s)"
    return artifact, None


def tail(text: str, lines: int = 5) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


# ------------------------------------------------------------------ stamp
def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """The BLAS thread pin of every child: OpenBLAS's own default, made explicit."""
    return cpu_count()


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state():
    """``(commit, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, bool(status.strip())


def platform_key(probe: Dict) -> Dict:
    """What decides whether a recorded payload digest applies on this host."""
    features = ",".join(probe["cpu_features"]).encode("utf-8")
    return {
        "machine": probe["machine"],
        "numpy": probe["numpy"],
        "cpu_features_sha256": hashlib.sha256(features).hexdigest()[:16],
        "blas_core": probe["blas_core"],
    }


def load_digests() -> Dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ traces
@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0
    durations_s: List[float] = field(default_factory=list)


def span_stats(trace: Dict) -> Dict[str, SpanStats]:
    """Calls, busy time (outermost spans of a name), self time and values."""
    names = trace["names"]
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: Dict[str, SpanStats] = {}
    for index, (name_id, start, end, parent, value) in enumerate(spans):
        entry = stats.setdefault(names[name_id], SpanStats())
        duration = end - start
        entry.calls += 1
        entry.self_s += (duration - child_ns[index]) / 1e9
        entry.value += value
        entry.durations_s.append(duration / 1e9)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry.busy_s += duration / 1e9
    return stats


def top_level_s(trace: Dict) -> float:
    return sum(end - start for _, start, end, parent, _ in trace["spans"] if parent < 0) / 1e9


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


LAYER_CLASSES = (
    "Conv2D", "LowRankConv2D", "MaxPool2D", "AvgPool2D",
    "Linear", "LowRankLinear", "ReLU", "SoftmaxCrossEntropy",
)
SIM_SPANS = ("sim.evaluate", "sim.program", "sim.mvm")


def layer_metrics(stats: Dict[str, SpanStats]) -> Dict[str, float]:
    """Per-layer metrics read from the traced child's spans."""

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    steps = get("trainer.step")
    routing = get("routing")
    metrics = {
        "store.journal_appends": get("store.journal").calls,
        "store.journal_s": get("store.journal").busy_s,
        "store.save_s": get("store.save").busy_s,
        "data.make_s": get("data.make").busy_s,
        "data.batch_s": get("data.batch").busy_s,
        "trainer.steps": steps.calls,
        "trainer.step_s": steps.busy_s,
        "trainer.step_ms.p50": percentile(steps.durations_s, 50) * 1e3,
        "trainer.step_ms.p99": percentile(steps.durations_s, 99) * 1e3,
        "trainer.eval_s": get("trainer.eval").busy_s,
        "network.forward_s": get("network.forward").busy_s,
        "network.backward_s": get("network.backward").busy_s,
        "stack.forward_s": get("stack.forward").busy_s,
        "stack.backward_s": get("stack.backward").busy_s,
    }
    for cls in LAYER_CLASSES:
        for direction in ("forward", "backward"):
            metrics[f"layers.{cls}.{direction}_s"] = get(f"layers.{cls}.{direction}").self_s
    im2col = get("functional.im2col")
    col2im = get("functional.col2im")
    fused = get("functional.conv_backward_input")
    flops = sum(
        get(f"layers.{cls}.{direction}").value
        for cls in LAYER_CLASSES
        for direction in ("forward", "backward")
    )
    metrics.update(
        {
            "functional.im2col.calls": im2col.calls,
            "functional.im2col.s": im2col.self_s,
            "functional.im2col.mb": im2col.value / 2**20,
            "functional.col2im.calls": col2im.calls,
            "functional.col2im.s": col2im.self_s,
            "functional.conv_backward_input.calls": fused.calls,
            "functional.conv_backward_input.s": fused.self_s,
            "functional.gemm_gflop": flops / 1e9,
            "optim.step_s": get("optim.step").busy_s,
            "core.group_lasso_s": get("core.group_lasso").busy_s,
            "core.deletion_s": get("core.deletion").busy_s,
            "core.clip_s": get("core.clip").busy_s,
            "routing.lookups": routing.calls,
            "routing.cache_hit_ratio": routing.value / routing.calls if routing.calls else 0.0,
            "routing.s": routing.busy_s,
            "sim.program_calls": get("sim.program").calls,
            "sim.program_s": get("sim.program").busy_s,
            "sim.cells": get("sim.program").value,
            "sim.mvm_calls": get("sim.mvm").calls,
            "sim.mvm_s": get("sim.mvm").busy_s,
            "sim.tile_mvms": get("sim.mvm").value,
            # The simulator's own calls into nn layers and kernels (traced.py
            # renames them into the sim scope); layers.* and functional.*
            # above cover training and software evaluation only.
            "sim.nn_s": sum(
                (
                    entry.self_s
                    for name, entry in stats.items()
                    if name.startswith("sim.") and name not in SIM_SPANS
                ),
                0.0,
            ),
        }
    )
    return metrics


def trace_tables(stats: Dict[str, SpanStats], wall_s: float) -> List[str]:
    """Top-N spans and every layer (span-name prefix) by self time."""
    lines = [f"  top {TOP_N} spans by self time (traced wall {wall_s:.3f} s):"]
    ranked = sorted(stats.items(), key=lambda item: item[1].self_s, reverse=True)
    for name, entry in ranked[:TOP_N]:
        lines.append(
            f"    {name:<40} self {entry.self_s:9.4f} s {100 * entry.self_s / wall_s:6.2f}%"
            f"  busy {entry.busy_s:9.4f} s  calls {entry.calls:>7}"
        )
    layers: Dict[str, float] = {}
    for name, entry in stats.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry.self_s
    lines.append("  layers by self time:")
    for layer, self_s in sorted(layers.items(), key=lambda item: item[1], reverse=True):
        lines.append(f"    {layer:<12} {self_s:9.4f} s {100 * self_s / wall_s:6.2f}%")
    return lines


# ------------------------------------------------------------------ workload
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    fresh_attempted: int = 0
    fresh_failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    digest_source: str = ""
    fingerprint: str = ""
    probe: Dict = field(default_factory=dict)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.lines.append(f"  FAILED {what}: {why}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> Outcome:
    workload = WORKLOADS[name]
    env = child_env()
    py = sys.executable
    outcome = Outcome()
    logs = run_dir / name
    logs.mkdir()

    # 1. set-up children: launch -> datasets built.
    setup_s: List[float] = []
    probes: List[Dict] = []
    for index in range(SETUP_CHILDREN):
        child = run_child(
            [py, str(BENCH / "setup_child.py"), workload.preset, str(seed),
             json.dumps(workload.overrides)],
            env, logs, f"setup-{index}",
        )
        outcome.attempted += 1
        try:
            probe = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            probe = None
        if child.returncode != 0 or probe is None:
            outcome.fail(f"setup child {index}", f"exit {child.returncode}: {tail(child.stderr)}")
            continue
        probes.append(probe)
        setup_s.append(probe["ready"] - child.launched)
    if not probes:
        return outcome
    probe = outcome.probe = probes[0]
    if any(other["fingerprint"] != probe["fingerprint"] for other in probes):
        outcome.fail("setup children", "resolved specs disagree")
    fingerprint = outcome.fingerprint = probe["fingerprint"]
    points = len(probe["spec"]["grid"]) or 1
    spec_path = run_dir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(probe["spec"], indent=2, sort_keys=True) + "\n")

    recorded = load_digests()
    expected = None
    if recorded["platform"] == platform_key(probe):
        expected = recorded["digests"].get(name, {}).get(str(seed))
    outcome.digest_source = "recorded" if expected else "first fresh run (seed not recorded here)"

    def check_digest(what: str, digest: str) -> bool:
        nonlocal expected
        if expected is None:
            expected = digest
        if digest != expected:
            outcome.fail(what, f"payload digest {digest[:16]} != expected {expected[:16]}")
            return False
        return True

    # 2. fresh children for `seconds`.
    fresh: List[Child] = []
    stage_s: Dict[str, List[float]] = {"baseline_s": [], "points_s": [], "hardware_s": []}
    first_point_s: List[float] = []
    first_store = None
    failed_before = outcome.failed
    started = time.monotonic()
    while not fresh or time.monotonic() - started < seconds:
        store = run_dir / f"{name}-store-{len(fresh)}"
        child = run_child(
            [py, "-m", "repro", "run", str(spec_path), "--store", str(store), "--quiet"],
            env, logs, f"fresh-{len(fresh)}",
            watch=(store / f"{fingerprint}.journal.jsonl", store / f"{fingerprint}.json"),
        )
        outcome.attempted += 1
        label = f"fresh run {len(fresh)}"
        fresh.append(child)
        counts = _POINTS_LINE.search(child.stdout)
        if child.returncode != 0 or "FAILED" in child.stdout:
            outcome.fail(label, f"exit {child.returncode}: {tail(child.stdout + child.stderr)}")
            continue
        if counts is None or (int(counts[1]), int(counts[2])) != (points, 0):
            outcome.fail(label, f"expected '{points} computed, 0 reused': {tail(child.stdout)}")
            continue
        artifact, problem = load_artifact(store, fingerprint)
        if problem:
            outcome.fail(label, problem)
            continue
        digest = payload_digest(artifact["result"])
        if not check_digest(label, digest):
            continue
        for key, values in stage_s.items():
            values.append(float(artifact["timings"].get(key, 0.0)))
        if child.first_seen_s is not None:
            first_point_s.append(child.first_seen_s)
        if first_store is None:
            first_store = store
        else:
            shutil.rmtree(store)
    outcome.digest = expected
    outcome.fresh_attempted = len(fresh)
    outcome.fresh_failed = outcome.failed - failed_before

    # 3. resume child on the filled store: nothing computed, same payload.
    resume_s = 0.0
    if first_store is not None:
        child = run_child(
            [py, "-m", "repro", "run", str(spec_path), "--store", str(first_store), "--json"],
            env, logs, "resume",
        )
        outcome.attempted += 1
        resume_s = child.wall_s
        try:
            resumed = json.loads(child.stdout)
        except json.JSONDecodeError:
            resumed = None
        if child.returncode != 0 or resumed is None:
            outcome.fail("resume run", f"exit {child.returncode}: {tail(child.stderr)}")
        elif resumed["computed_points"] != 0 or resumed["failed_points"]:
            outcome.fail("resume run", f"computed {resumed['computed_points']} point(s), expected 0")
        else:
            check_digest("resume run", payload_digest(resumed["result"]))

    good = [child for child in fresh if child.returncode == 0] or fresh
    walls = [child.wall_s for child in good]
    outcome.samples = {
        "wall_s": walls,
        "setup_s": setup_s,
        "peak_rss_mb": [child.peak_rss_mb for child in good],
    }
    wall_s = statistics.median(walls)
    if not trace:
        outcome.metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(outcome.samples["peak_rss_mb"]),
        }
        return outcome

    # 4. traced child: per-layer metrics.
    spans_path = run_dir / f"{name}.trace.json"
    child = run_child(
        [py, str(BENCH / "traced.py"), str(spec_path), str(run_dir / f"{name}-traced"),
         str(spans_path)],
        env, logs, "traced",
    )
    outcome.attempted += 1
    if child.returncode != 0 or not spans_path.is_file():
        outcome.fail("traced run", f"exit {child.returncode}: {tail(child.stderr)}")
        return outcome
    with open(spans_path, encoding="utf-8") as handle:
        traced = json.load(handle)
    os.replace(spans_path, WORK / f"trace-{name}.json")
    traced_wall_s = traced["finished_ns"] / 1e9 - child.launched
    if traced["computed_points"] != points or traced["failed_points"]:
        outcome.fail("traced run", f"computed {traced['computed_points']} of {points} point(s)")
    check_digest("traced run", traced["digest"])
    stats = span_stats(traced)
    coverage_pct = 100.0 * top_level_s(traced) / traced_wall_s
    if workload.min_coverage_pct is not None and coverage_pct < workload.min_coverage_pct:
        outcome.fail(
            "traced run",
            f"spans cover {coverage_pct:.1f}% of traced wall, below {workload.min_coverage_pct}%",
        )
    hardware_s = median(stage_s["hardware_s"])
    corners = len(probe["spec"].get("hardware") or ())
    outcome.metrics = {
        "experiments.baseline_s": median(stage_s["baseline_s"]),
        "experiments.points_s": median(stage_s["points_s"]),
        "experiments.hardware_s": hardware_s,
        "experiments.first_point_s": median(first_point_s),
        "store.resume_s": resume_s,
        **layer_metrics(stats),
        "sim.samples_per_s": probe["samples"][1] * corners / hardware_s if hardware_s else 0.0,
        "process.cpu_s": median([child.cpu_s for child in good]),
        "process.cpu_util": median([child.cpu_s / child.wall_s for child in good]),
        "trace.overhead_pct": 100.0 * (traced_wall_s - wall_s) / wall_s,
        "trace.coverage_pct": coverage_pct,
    }
    outcome.lines.extend(trace_tables(stats, traced_wall_s))
    return outcome


# ------------------------------------------------------------------ output
def stamp(probe: Dict) -> Dict:
    """What ties a record to the code and host that produced it."""
    commit, dirty = git_state()
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_sha256(),
        "blas_threads": blas_threads(),
        "nproc": cpu_count(),
        "python": probe.get("python"),
        "numpy": probe.get("numpy"),
        "platform": platform_key(probe) if probe else None,
        # Wall-clock date of the record; not an input to any result.
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def render(name: str, seed: int, outcome: Outcome, entries: List[Dict], units: Dict, trace: bool) -> None:
    """Print one workload's report."""
    print(
        f"== {name} (preset {WORKLOADS[name].preset}, seed {seed}, spec {outcome.fingerprint}, "
        f"payload {(outcome.digest or 'none')[:16]} vs {outcome.digest_source})"
    )
    for key, values in outcome.samples.items():
        if values:
            print(
                f"  {key:<12} {statistics.median(values):10.4f} {units[key]:<4} "
                f"median of {len(values)}  (min {min(values):.4f}, max {max(values):.4f})"
            )
    print(
        f"  fresh runs failed / attempted: {outcome.fresh_failed} / {outcome.fresh_attempted}"
        f"  (all children: {outcome.failed} / {outcome.attempted})"
    )
    for line in outcome.lines:
        print(line)
    if trace and outcome.metrics.keys() >= {entry["name"] for entry in entries}:
        print("  per-layer metrics:")
        for entry in entries:
            print(f"    {entry['name']:<40} {outcome.metrics[entry['name']]:14.4f} {entry['unit']}")


def append_record(path: Path, record: Dict) -> None:
    records = json.loads(path.read_text()) if path.is_file() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


def update_digests(name: str, seed: int, outcome: Outcome) -> None:
    recorded = load_digests()
    key = platform_key(outcome.probe)
    if recorded["platform"] != key:
        recorded["platform"], recorded["digests"] = key, {}
    recorded["digests"].setdefault(name, {})[str(seed)] = outcome.digest
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="the spec's seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="fresh-run loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append each workload's record to a JSON list")
    parser.add_argument(
        "--update-digests", action="store_true",
        help="record the payload digest of a correct run in digests.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    entries = config["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in config["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, outcome in results.items():
        record = {
            "stamp": stamp(outcome.probe),
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "spec_fingerprint": outcome.fingerprint,
            "payload_sha256": outcome.digest,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": outcome.metrics,
            "samples": outcome.samples,
        }
        undeclared = set(outcome.metrics) - {entry["name"] for entry in entries}
        if undeclared:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
        print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
        render(name, args.seed, outcome, entries, units, bool(args.trace))
        summary["attempted"] += outcome.attempted
        summary["failed"] += outcome.failed
        summary["correct"] = summary["correct"] and outcome.failed == 0
        prefix = f"{name}." if len(results) > 1 else ""
        for entry in entries:
            if entry["name"] in outcome.metrics:
                summary["metrics"][prefix + entry["name"]] = {
                    "value": outcome.metrics[entry["name"]],
                    "unit": entry["unit"],
                }
        if args.record:
            append_record(args.record, record)
        if args.update_digests and outcome.failed == 0 and outcome.digest:
            update_digests(name, args.seed, outcome)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
