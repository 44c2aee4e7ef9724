#!/usr/bin/env python
"""Quickstart: the declarative experiment API end to end in under a minute.

Every paper deliverable of this reproduction — Tables 1/3, the Figure 3/5
traces, the Figure 6-8 sweeps, the headline area numbers — runs through one
declarative pipeline:

    ExperimentSpec  ->  plan  ->  run  ->  artifact

1. **Spec** — a frozen, JSON-serializable description of the experiment:
   workload + scale (+ overrides), method (rank_clipping / group_deletion /
   baseline), sweep grid, engine policy (serial / process-fanned / lockstep)
   and seed policy.  Specs round-trip through plain dicts and hash to stable
   content fingerprints.
2. **Plan** — the spec expands into fingerprinted point tasks executed by the
   ``SweepEngine`` (the PR 2-3 machinery: process fan-out, batched
   multi-network evaluation, lockstep stacked training — all bit-identical).
3. **Run** — ``execute_spec`` trains whatever is not already stored.
4. **Artifact** — a ``RunStore`` persists every run as a content-addressed
   JSON artifact.  Re-running a complete spec performs **zero training**, and
   runs with overlapping grids (or different engine policies) reuse each
   other's point results.

The same workflow is available from the shell:

    python -m repro run table1 --scale tiny --workers 1
    python -m repro list / show / compare / bench

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import (
    REGISTRY,
    ExperimentSpec,
    RunStore,
    execute_spec,
    result_from_payload,
)


def main() -> None:
    # A store directory holds one JSON artifact per spec fingerprint.  Use a
    # persistent path (e.g. ``runs/``) in real projects; the CLI defaults to
    # ``$REPRO_RUN_STORE`` or ``runs/``.
    store = RunStore(Path(tempfile.mkdtemp(prefix="repro-quickstart-")))
    print(f"run store: {store.root}\n")

    # ------------------------------------------------------- 1. define a spec
    # An ε rank-clipping sweep (the Figure 6/7 experiment) on the fast MLP
    # workload.  `scale_overrides` trims the tiny preset further so this
    # example stays sub-second; drop them (or use scale="small"/"paper") for
    # real runs.
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        grid=(0.02, 0.1, 0.3),
        name="quickstart-sweep",
    )
    print("=== Spec ===")
    print(spec.to_json())

    # ------------------------------------------------------------- 2. run it
    print("=== First run (trains baseline + 3 sweep points) ===")
    run = execute_spec(spec, store=store)
    print(run.format_summary())
    print()
    print(run.result.format_table())

    # ------------------------------------------------- 3. resume = no training
    print("\n=== Second run (complete artifact: zero new training) ===")
    again = execute_spec(spec, store=store)
    assert again.computed_points == 0
    print(again.format_summary())

    # A wider grid reuses the three stored points and only trains the new
    # one.  (The distinct name keeps `store.find("quickstart-sweep")`
    # unambiguous; artifacts are addressed by content fingerprint either way.)
    wider = spec.with_updates(grid=(0.02, 0.1, 0.3, 0.5), name="quickstart-sweep-wide")
    print("\n=== Wider grid (3 points reused, 1 trained) ===")
    print(execute_spec(wider, store=store).format_summary())

    # ------------------------------------- 4. reload the artifact from disk
    print("\n=== Reloaded from the stored artifact ===")
    artifact = store.find(spec.fingerprint())
    result = result_from_payload(spec, artifact["result"])
    print(result.format_table())

    # ----------------------------------------------------- registry presets
    # Paper deliverables are registered by name; overrides apply per call.
    # Engine fields route automatically: workers=2 fans sweep points over
    # processes, and the figure8 preset already runs mode="lockstep" (all
    # λ-points trained as one stacked program; mode="points" gives the
    # per-point path) — all bit-identical to the serial path.
    print("\n=== Registry preset: table1 on the tiny MLP workload ===")
    table1 = REGISTRY.get("table1", workload="mlp", scale="tiny")
    print(execute_spec(table1, store=store).result.format_table())

    print("\n=== Registry preset: λ-deletion sweep (the preset runs lockstep) ===")
    figure8 = REGISTRY.get("figure8", workload="mlp", scale="tiny", grid=(0.01, 0.03, 0.08))
    print(execute_spec(figure8, store=store).result.format_table())

    print("\nStored runs:")
    for row in store.list_runs():
        print(f"  {row['fingerprint']}  {row['name']:<18} {row['kind']:<8} complete={row['complete']}")

    # ------------------------------------ 5. queued execution (the scheduler)
    # Instead of running inline, specs can be *submitted* to a persistent job
    # queue and executed by the `serve-jobs` daemon, which runs nodes from
    # different jobs concurrently while keeping every job bit-identical to
    # `execute_spec`.  The shell equivalent:
    #
    #     python -m repro serve-jobs --workers 4 &   # daemon; SIGINT drains
    #     python -m repro submit figure6 --workload mlp --scale tiny \
    #         --grid 0.05 0.3
    #     python -m repro status        # queue ⋈ store health table (--json)
    #     python -m repro watch <job>   # stream per-node events
    #     python -m repro cancel <job>  # honored between nodes
    #
    # Here we drive the same machinery in process: submit two sweeps, run the
    # scheduler until the queue drains, and read the joined status back.
    from repro.scheduler import JobQueue, JobScheduler
    from repro.scheduler.client import job_rows, render_job_rows
    from repro.scheduler.daemon import default_queue_root

    print("\n=== Queued execution: submit two sweeps, drain the queue ===")
    queue = JobQueue(default_queue_root(store.root))
    job_a = queue.submit(spec.with_updates(name="queued-sweep"))
    job_b = queue.submit(wider.with_updates(name="queued-sweep-wide"))
    print(f"queued {job_a.job_id} and {job_b.job_id}")
    finalized = JobScheduler(queue, store, workers=2, poll_s=0.05).run(drain=True)
    print(f"drained: {finalized} job(s) finalized (all points already stored)")
    print(render_job_rows(job_rows(queue, store)))

    print(
        "\nDone.  Try the CLI next:\n"
        f"  python -m repro list --store {store.root}\n"
        f"  python -m repro show quickstart-sweep --store {store.root}\n"
        "  python -m repro run table1 --scale tiny --workers 1\n"
        f"  python -m repro serve-jobs --store {store.root} --drain"
    )


if __name__ == "__main__":
    main()
