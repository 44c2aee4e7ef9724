"""``python -m repro`` — the declarative experiment command line.

Subcommands::

    python -m repro run table1 --scale tiny --workers 1   # run a preset
    python -m repro run my_spec.json --store runs         # run a spec file
    python -m repro list [--json]                         # presets + stored runs
    python -m repro show table1                           # render one artifact
    python -m repro compare <fp-a> <fp-b>                 # diff two artifacts
    python -m repro bench --suite kernels                 # benchmark suites
    python -m repro serve-jobs [--drain]                  # experiment job daemon
    python -m repro submit figure6 --scale tiny           # enqueue a job
    python -m repro status [JOB] [--json]                 # queue + artifact state
    python -m repro cancel JOB                            # request cancellation
    python -m repro watch [JOB]                           # stream per-node events
    python -m repro metrics [--json]                      # exported metrics snapshot
    python -m repro trace [FILTER]                        # trace-stream summary
    python -m repro lint [--list-rules]                   # contract linter

Runs persist to a :class:`~repro.experiments.store.RunStore`
(``--store DIR``, default ``$REPRO_RUN_STORE`` or ``runs/``) and resume by
default: re-running a spec whose artifact is complete performs zero new
training, and overlapping sweep grids reuse each other's points.  ``--fresh``
forces recomputation.

The ``bench`` subcommand delegates to ``benchmarks/run_benchmarks.py`` so the
suite names here, in CI, and in the benchmark runner come from the single
``SUITES`` registry defined there.

Exit codes::

    0  clean run — every point computed or reused
    1  aborted   — interrupted (SIGINT), strict-mode point failure, or every
                   sweep point failed; a partial artifact may still have been
                   persisted (the message says where)
    2  usage / configuration error (any other ReproError)
    3  partial   — the run completed but one or more points failed; their
                   tracebacks are in the artifact (`show` renders them) and a
                   re-run retries just the failed points
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.exceptions import PointFailureError, ReproError, RunInterrupted
from repro.utils import faultinject
from repro.experiments.plan import execute_spec, render_result
from repro.experiments.presets import scale_names
from repro.experiments.registry import REGISTRY
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import (
    RunStore,
    compare_artifacts,
    default_store_root,
    render_artifact,
)
from repro.experiments.workloads import workload_names


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The spec-override flags shared by ``run`` and ``submit``.

    Both verbs resolve their spec through :func:`_resolve_spec`, so the
    flag set (and therefore the fingerprints it produces) cannot drift
    between the inline and the queued execution path.
    """
    parser.add_argument(
        "experiment",
        help="preset name (see `list`) or path to an ExperimentSpec JSON file",
    )
    parser.add_argument("--workload", choices=workload_names(), help="workload override")
    parser.add_argument("--scale", choices=scale_names(), help="scale preset override")
    parser.add_argument(
        "--grid", type=float, nargs="+", metavar="VALUE", help="sweep grid override"
    )
    parser.add_argument("--tolerance", type=float, help="clipping tolerance ε override")
    parser.add_argument("--strength", type=float, help="group-Lasso λ override")
    parser.add_argument(
        "--method",
        choices=("rank_clipping", "group_deletion"),
        help="sweep method override (kind='sweep' only)",
    )
    parser.add_argument(
        "--lowrank-method",
        dest="lowrank_method",
        choices=("pca", "svd"),
        help="low-rank backend override",
    )
    parser.add_argument(
        "--include-small-matrices",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also delete matrices that fit a single crossbar",
    )
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--hardware",
        help=(
            "device-simulation override: JSON list of HardwareConfig dicts "
            "(inline, or a path to a JSON file); '[]' disables simulation. "
            "Only kind='sweep'/'baseline' specs accept it."
        ),
    )
    parser.add_argument("--workers", type=int, help="engine worker processes")
    parser.add_argument(
        "--engine-mode",
        dest="mode",
        choices=("points", "lockstep"),
        help=(
            "engine execution mode: 'points' runs each sweep point as its own "
            "task; 'lockstep' trains a λ sweep's points together as one "
            "stack, split in two across processes on two or more usable "
            "CPUs and batches of 16 or more (re-run serially from pristine "
            "copies if a stack fails; ε sweeps keep the points path)"
        ),
    )
    parser.add_argument(
        "--per-point-seed",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="derive an independent data stream per sweep point",
    )
    parser.add_argument(
        "--max-attempts",
        dest="max_attempts",
        type=int,
        help="run each sweep point up to N times before recording a failure",
    )
    parser.add_argument(
        "--retry-backoff",
        dest="retry_backoff",
        type=float,
        metavar="SECONDS",
        help="base delay between point retries (doubles per attempt)",
    )
    parser.add_argument(
        "--point-timeout",
        dest="point_timeout",
        type=float,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget (process pools and a lockstep "
            "split's worker only)"
        ),
    )


def _add_queue_arguments(parser: argparse.ArgumentParser) -> None:
    """The queue/store location flags shared by the scheduler verbs."""
    parser.add_argument(
        "--store", type=Path, default=None, help="run store directory (default: runs/)"
    )
    parser.add_argument(
        "--queue",
        type=Path,
        default=None,
        help="job queue directory (default: <store>/queue)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, inspect and compare Group Scissor paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a registered experiment preset or a spec JSON file"
    )
    _add_spec_arguments(run)
    run.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first failed sweep point instead of completing partially",
    )
    run.add_argument(
        "--faults",
        help=(
            "deterministic fault-injection plan (JSON, inline or a file path); "
            "exported as $REPRO_FAULTS so worker processes inherit it. "
            "Testing/chaos-drill knob — see repro.utils.faultinject."
        ),
    )
    run.add_argument(
        "--store", type=Path, default=None, help="run store directory (default: runs/)"
    )
    run.add_argument(
        "--no-store", action="store_true", help="do not persist an artifact"
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help="recompute everything (ignore stored artifacts and points)",
    )
    run.add_argument("--json", action="store_true", help="emit the result as JSON")
    run.add_argument(
        "--quiet", action="store_true", help="suppress the result table rendering"
    )

    lst = sub.add_parser("list", help="list registered presets and stored runs")
    lst.add_argument("--store", type=Path, default=None)
    lst.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (health/partial/quarantine flags included)",
    )

    serve_jobs = sub.add_parser(
        "serve-jobs",
        help="run the experiment job daemon (scheduler over the job queue)",
    )
    _add_queue_arguments(serve_jobs)
    serve_jobs.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs (one node in flight per job; default: 2)",
    )
    serve_jobs.add_argument(
        "--poll",
        dest="poll_s",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="queue/futures poll interval (default: 0.2)",
    )
    serve_jobs.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of serving forever",
    )
    serve_jobs.add_argument(
        "--idle-exit",
        dest="idle_exit_s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this much continuous idle time (liveness backstop)",
    )
    serve_jobs.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "record scheduler metrics and per-node trace records under "
            "<store>/obs (snapshot exported on exit)"
        ),
    )

    submit = sub.add_parser(
        "submit", help="enqueue an experiment for the job daemon"
    )
    _add_spec_arguments(submit)
    _add_queue_arguments(submit)
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher runs first; default: 0)",
    )
    submit.add_argument("--json", action="store_true", help="emit the job record as JSON")

    status = sub.add_parser(
        "status", help="show job queue state (works with or without a live daemon)"
    )
    status.add_argument("job", nargs="?", help="job id or unique prefix (default: all)")
    _add_queue_arguments(status)
    status.add_argument("--json", action="store_true", help="emit rows as JSON")

    cancel = sub.add_parser("cancel", help="request cancellation of a queued/running job")
    cancel.add_argument("job", help="job id or unique prefix")
    _add_queue_arguments(cancel)

    watch = sub.add_parser(
        "watch", help="stream per-node status events for a job (or the whole queue)"
    )
    watch.add_argument("job", nargs="?", help="job id or unique prefix (default: all)")
    _add_queue_arguments(watch)
    watch.add_argument(
        "--timeout",
        dest="timeout_s",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="stop tailing after this long (default: 120)",
    )
    watch.add_argument("--json", action="store_true", help="emit events as JSON lines")

    show = sub.add_parser("show", help="render one stored run artifact")
    show.add_argument("key", help="spec fingerprint, fingerprint prefix, or run name")
    show.add_argument("--store", type=Path, default=None)
    show.add_argument("--json", action="store_true", help="emit the raw artifact JSON")

    compare = sub.add_parser("compare", help="compare two stored run artifacts")
    compare.add_argument("first", help="fingerprint / prefix / name of the first run")
    compare.add_argument("second", help="fingerprint / prefix / name of the second run")
    compare.add_argument("--store", type=Path, default=None)

    bench = sub.add_parser(
        "bench", help="run benchmark suites (delegates to benchmarks/run_benchmarks.py)"
    )
    bench.add_argument("--suite", default="all", help="suite name or 'all'")
    bench.add_argument("--check", action="store_true", help="fail on regressions")
    bench.add_argument("--list", action="store_true", help="list suite names and exit")

    metrics = sub.add_parser(
        "metrics",
        help="render the metrics snapshot exported by a --metrics run",
    )
    metrics.add_argument("--store", type=Path, default=None)
    metrics.add_argument(
        "--json", action="store_true", help="emit the raw snapshot JSON"
    )

    trace = sub.add_parser(
        "trace",
        help="summarize the trace stream (<store>/obs/traces.jsonl)",
    )
    trace.add_argument(
        "filter",
        nargs="?",
        help=(
            "substring matched against each record's run/job/name/node "
            "fields (e.g. a job id or a spec fingerprint prefix)"
        ),
    )
    trace.add_argument(
        "--kind",
        choices=("node", "span"),
        default=None,
        help="restrict to one record kind",
    )
    trace.add_argument("--store", type=Path, default=None)
    trace.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="recent matching records to print after the summary (default: 20)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit {summary, records} as JSON (records unlimited)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically check the repo's determinism/dtype/parity contracts",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to lint (default: src/repro, benchmarks, examples)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--rules", help="comma-separated rule-id subset to run (default: all)"
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their motivations and exit",
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="base directory for reported paths (default: the repo checkout)",
    )
    return parser


def _store_for(args) -> RunStore:
    return RunStore(args.store if args.store is not None else default_store_root())


def _queue_for(args):
    """The job queue for the scheduler verbs (deferred scheduler import)."""
    from repro.scheduler.daemon import default_queue_root
    from repro.scheduler.jobs import JobQueue

    if args.queue is not None:
        return JobQueue(args.queue)
    store_root = args.store if args.store is not None else default_store_root()
    return JobQueue(default_queue_root(store_root))


def _parse_hardware(argument: Optional[str]):
    """Decode ``--hardware`` into a tuple of config dicts (``None`` = keep preset).

    Accepts inline JSON (a list of :class:`~repro.hardware.sim.HardwareConfig`
    dicts, or one bare dict) or the path of a JSON file holding the same;
    ``ExperimentSpec`` validates the entries.
    """
    if argument is None:
        return None
    text = argument
    path = Path(argument)
    try:
        if path.exists() and path.is_file():
            text = path.read_text()
    except OSError:  # e.g. an inline JSON string too long for a file name
        pass
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(
            f"--hardware expects JSON (inline or a file path): {error}"
        ) from None
    if isinstance(parsed, dict):
        parsed = [parsed]
    if not isinstance(parsed, list):
        raise ReproError("--hardware JSON must be a list of HardwareConfig dicts")
    return tuple(parsed)


def _resolve_spec(args) -> ExperimentSpec:
    name = args.experiment
    if name in REGISTRY:
        spec = REGISTRY.get(name)
    else:
        path = Path(name)
        if path.exists() and path.suffix == ".json":
            spec = ExperimentSpec.from_dict(json.loads(path.read_text()))
        else:
            raise ReproError(
                f"unknown experiment {name!r}: not a registered preset "
                f"{list(REGISTRY.names())} and not a spec JSON file"
            )
    overrides = {
        "workload": args.workload,
        "scale": args.scale,
        "grid": tuple(args.grid) if args.grid else None,
        "tolerance": args.tolerance,
        "strength": args.strength,
        "method": args.method,
        "lowrank_method": args.lowrank_method,
        "include_small_matrices": args.include_small_matrices,
        "seed": args.seed,
        "hardware": _parse_hardware(args.hardware),
        "workers": args.workers,
        "mode": args.mode,
        "per_point_seed": args.per_point_seed,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    retry_overrides = {
        "max_attempts": args.max_attempts,
        "backoff_s": args.retry_backoff,
        "timeout_s": args.point_timeout,
    }
    retry_overrides = {
        key: value for key, value in retry_overrides.items() if value is not None
    }
    if retry_overrides:
        # RetryPolicy is pure execution policy — canonical() drops it, so
        # these flags never change the spec or point fingerprints.
        base = spec.engine.retry.as_dict()
        overrides["retry"] = {**base, **retry_overrides}
    return spec.with_updates(**overrides) if overrides else spec


def _install_faults(argument: Optional[str]) -> None:
    """Validate ``--faults`` and export it via ``$REPRO_FAULTS``.

    The environment variable (not an in-process install) is the vehicle so
    spawned worker processes see the same plan the parent does.
    """
    if argument is None:
        return
    text = argument
    path = Path(argument)
    try:
        if path.exists() and path.is_file():
            text = path.read_text()
    except OSError:  # e.g. an inline JSON string too long for a file name
        pass
    try:
        plan = faultinject.FaultPlan.parse(text)
    except ReproError:
        raise
    except (json.JSONDecodeError, TypeError, ValueError) as error:
        raise ReproError(
            f"--faults expects a JSON fault plan (inline or a file path): {error}"
        ) from None
    os.environ[faultinject.ENV_VAR] = plan.as_json()


def _cmd_run(args) -> int:
    spec = _resolve_spec(args)
    _install_faults(args.faults)
    store = None if args.no_store else _store_for(args)
    run = execute_spec(spec, store=store, resume=not args.fresh, strict=args.strict)
    if args.json:
        print(
            json.dumps(
                {
                    "fingerprint": run.fingerprint,
                    "spec": spec.to_dict(),
                    "computed_points": run.computed_points,
                    "reused_points": run.reused_points,
                    "failed_points": [
                        failure.to_payload() for failure in run.failures
                    ],
                    "duration_s": run.duration_s,
                    "artifact": str(run.artifact_path) if run.artifact_path else None,
                    "result": run.payload,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 3 if run.failures else 0
    print(run.format_summary())
    if not args.quiet:
        print()
        print(render_result(run.result))
    return 3 if run.failures else 0


def _cmd_list(args) -> int:
    store_root = args.store if args.store is not None else default_store_root()
    if args.json:
        presets = [
            {
                "name": name,
                "kind": spec.kind,
                "workload": spec.workload,
                "scale": spec.scale,
                "grid": list(spec.grid) if spec.grid else [],
                "description": description,
            }
            for name, spec, description in REGISTRY.items()
        ]
        listing = {"presets": presets, "store": {"root": str(store_root)}}
        if Path(store_root).exists():
            store = RunStore(store_root)
            listing["store"]["runs"] = store.list_runs()
            listing["store"]["quarantined"] = store.quarantined()
        else:
            listing["store"]["runs"] = []
            listing["store"]["quarantined"] = []
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    print("registered experiments:")
    width = max(len(name) for name in REGISTRY.names())
    for name, spec, description in REGISTRY.items():
        grid = f" grid={list(spec.grid)}" if spec.grid else ""
        print(
            f"  {name:<{width}}  kind={spec.kind:<8} workload={spec.workload:<8} "
            f"scale={spec.scale}{grid}"
        )
        if description:
            print(f"  {'':<{width}}  {description}")
    store_root = args.store if args.store is not None else default_store_root()
    if not Path(store_root).exists():
        print(f"\nrun store {store_root}: (empty)")
        return 0
    store = RunStore(store_root)
    rows = store.list_runs()
    print(f"\nrun store {store_root}: {len(rows)} artifact(s)")
    for row in rows:
        flags = ["complete" if row["complete"] else "partial"]
        if row.get("legacy_checksum"):
            flags.append("no-checksum")
        print(
            f"  {row['fingerprint']}  {row['name']:<10} {row['kind']:<8} "
            f"{row['workload']:<8} {row['scale']:<6} {row['points']:>3} point(s)  "
            f"{','.join(flags)}  {row['updated']}"
        )
    quarantined = store.quarantined()
    if quarantined:
        print(f"quarantined (corrupt, kept for inspection): {len(quarantined)} file(s)")
        for name in quarantined:
            print(f"  {name}")
    return 0


def _cmd_show(args) -> int:
    artifact = _store_for(args).find(args.key)
    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        print(render_artifact(artifact))
    return 0


def _cmd_compare(args) -> int:
    store = _store_for(args)
    print(compare_artifacts(store.find(args.first), store.find(args.second)))
    return 0


def _load_benchmark_runner():
    """Import ``benchmarks/run_benchmarks.py`` from the repository checkout."""
    script = Path(__file__).resolve().parents[3] / "benchmarks" / "run_benchmarks.py"
    if not script.exists():
        raise ReproError(
            "benchmark suites are only available from a repository checkout "
            f"(missing {script})"
        )
    module_spec = importlib.util.spec_from_file_location("repro_run_benchmarks", script)
    module = importlib.util.module_from_spec(module_spec)
    # Register before exec: dataclasses resolves annotations via sys.modules.
    sys.modules[module_spec.name] = module
    module_spec.loader.exec_module(module)
    return module


def _cmd_bench(args) -> int:
    runner = _load_benchmark_runner()
    argv: List[str] = []
    if args.list:
        argv.append("--list")
    else:
        argv.extend(["--suite", args.suite])
        if args.check:
            argv.append("--check")
    return runner.main(argv)


def _cmd_serve_jobs(args) -> int:
    # Deferred import: the scheduler pulls in the full experiments stack,
    # which `list`/`show` callers should not pay for.
    from repro.obs import create_observability, export_metrics, obs_root
    from repro.scheduler.daemon import serve_jobs

    store_root = args.store if args.store is not None else default_store_root()
    obs_dir = obs_root(store_root)
    obs = create_observability(obs_dir) if args.metrics else None
    try:
        serve_jobs(
            store_root,
            args.queue,
            workers=args.workers,
            poll_s=args.poll_s,
            drain=args.drain,
            idle_exit_s=args.idle_exit_s,
            obs=obs,
        )
    finally:
        # Registries are process-local: the snapshot must land on exit,
        # even when the daemon dies on an error.
        if obs is not None:
            obs.tracer.close()
            path = export_metrics(obs, obs_dir)
            # stderr so --json stdout stays machine-parseable.
            print(
                f"observability: metrics -> {path}  traces -> {obs.tracer.path}",
                file=sys.stderr,
            )
    return 0


def _fmt_seconds(value) -> str:
    """Milliseconds rendering for percentile fields (NaN/None → '-')."""
    if value is None or value != value:
        return "-"
    return f"{float(value) * 1000:.3f} ms"


def _fmt_raw(value) -> str:
    """Plain rendering for unitless histogram fields (NaN/None → '-')."""
    if value is None or value != value:
        return "-"
    return f"{float(value):g}"


def _cmd_metrics(args) -> int:
    from repro.obs import load_metrics_snapshot, metrics_path, obs_root

    store_root = args.store if args.store is not None else default_store_root()
    path = metrics_path(obs_root(store_root))
    snapshot = load_metrics_snapshot(path)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"metrics snapshot: {path}")
    if snapshot.get("counters"):
        print("counters:")
        for name, value in snapshot["counters"].items():
            print(f"  {name:<36} {value}")
    if snapshot.get("gauges"):
        print("gauges:")
        for name, value in snapshot["gauges"].items():
            print(f"  {name:<36} {value:g}")
    if snapshot.get("histograms"):
        print("histograms:")
        for name, hist in snapshot["histograms"].items():
            # The `_s` suffix marks seconds-valued series (rendered as ms);
            # anything else (batch sizes, ...) prints raw.
            fmt = _fmt_seconds if name.endswith("_s") else _fmt_raw
            print(
                f"  {name:<36} count {hist['count']:<6} "
                f"p50 {fmt(hist['p50'])}  "
                f"p95 {fmt(hist['p95'])}  "
                f"p99 {fmt(hist['p99'])}"
            )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import obs_root, read_trace_file, summarize_traces, traces_path

    store_root = args.store if args.store is not None else default_store_root()
    path = traces_path(obs_root(store_root))
    if not path.exists():
        raise ReproError(
            f"no trace stream at {path}; run `serve-jobs --metrics` first"
        )
    records = read_trace_file(path)
    if args.kind:
        records = [r for r in records if r.get("kind") == args.kind]
    if args.filter:
        needle = args.filter
        records = [
            r
            for r in records
            if any(
                needle in str(r.get(field, ""))
                for field in ("run", "job", "name", "node", "kind")
            )
        ]
    summary = summarize_traces(records)
    if args.json:
        print(
            json.dumps(
                {"summary": summary, "records": records},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    print(f"trace stream: {path} ({len(records)} matching record(s))")
    if "nodes" in summary:
        nodes = summary["nodes"]
        print(f"nodes: {nodes['count']}  statuses {nodes['statuses']}")
        print(
            f"  ready wait  p50 {_fmt_seconds(nodes['ready_wait_s']['p50'])}  "
            f"p99 {_fmt_seconds(nodes['ready_wait_s']['p99'])}"
        )
        print(
            f"  node time   p50 {_fmt_seconds(nodes['elapsed_s']['p50'])}  "
            f"p99 {_fmt_seconds(nodes['elapsed_s']['p99'])}"
        )
        depths = nodes["queue_depth_samples"]
        if depths:
            print(f"  queue depth at dispatch  max {max(depths)}  samples {depths}")
    if "spans" in summary:
        print("spans:")
        for name, span in summary["spans"].items():
            print(
                f"  {name:<28} n={span['count']:<5} "
                f"p50 {_fmt_seconds(span['p50'])}  p99 {_fmt_seconds(span['p99'])}"
            )
    if args.limit > 0 and records:
        print(f"recent records (last {min(args.limit, len(records))}):")
        for record in records[-args.limit:]:
            fields = {
                k: v
                for k, v in sorted(record.items())
                if k not in ("sha256",) and v is not None
            }
            print(f"  {fields}")
    return 0


def _cmd_submit(args) -> int:
    spec = _resolve_spec(args)
    queue = _queue_for(args)
    job = queue.submit(spec, priority=args.priority)
    if args.json:
        print(
            json.dumps(
                {
                    "job_id": job.job_id,
                    "priority": job.priority,
                    "fingerprint": job.fingerprint,
                    "name": job.name,
                    "queue": str(queue.root),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"queued {job.job_id} (priority {job.priority}) in {queue.root}")
    return 0


def _cmd_status(args) -> int:
    from repro.scheduler.client import job_rows, render_job_rows

    queue = _queue_for(args)
    store_root = args.store if args.store is not None else default_store_root()
    store = RunStore(store_root) if Path(store_root).exists() else None
    rows = job_rows(queue, store)
    if args.job:
        wanted = queue.load(args.job).job_id
        rows = [row for row in rows if row["job_id"] == wanted]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_job_rows(rows))
    return 0


def _cmd_cancel(args) -> int:
    queue = _queue_for(args)
    job = queue.load(args.job)
    if queue.request_cancel(job.job_id):
        print(f"cancel requested for {job.job_id}")
        return 0
    state = queue.state(job.job_id).get("state")
    print(f"{job.job_id} is already {state}; nothing to cancel", file=sys.stderr)
    return 1


def _cmd_watch(args) -> int:
    from repro.scheduler.client import render_event, watch_events

    queue = _queue_for(args)
    job_id = queue.load(args.job).job_id if args.job else None
    for record in watch_events(queue, job_id=job_id, timeout_s=args.timeout_s):
        if args.json:
            print(json.dumps(record, sort_keys=True), flush=True)
        else:
            print(render_event(record), flush=True)
    return 0


def _cmd_lint(args) -> int:
    # Deferred import: the linter's project rules import live repro modules,
    # which `run`/`list` callers should not pay for.
    from repro.analysis.cli import run_lint

    return run_lint(
        args.paths or None,
        fmt=args.format,
        rules=args.rules,
        list_rules=args.list_rules,
        root=args.root,
    )


_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "show": _cmd_show,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "serve-jobs": _cmd_serve_jobs,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "watch": _cmd_watch,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RunInterrupted, PointFailureError) as error:
        # Aborted runs: the message names the partial artifact when one was
        # persisted, so `run` again resumes from it.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
