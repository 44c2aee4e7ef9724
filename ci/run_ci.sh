#!/usr/bin/env bash
# Lightweight CI for the repo.
#
#   ci/run_ci.sh            # tier-1: full test + benchmark suite (includes
#                           # the kernel parity / engine regression tests,
#                           # the 2-worker sweep parity tests, the
#                           # spec/store/CLI tests, the golden-artifact pins,
#                           # and the crossbar-simulator parity/eval tests)
#                           # plus `python -m repro` CLI smoke jobs and a
#                           # perfbench payload-digest and peak-RSS smoke
#   ci/run_ci.sh --quick    # engine regression tests only (fast iteration)
#   ci/run_ci.sh --bench    # tier-1 plus one BENCH_<suite>.json data point
#                           # per registered suite (suite names come from the
#                           # SUITES registry in benchmarks/run_benchmarks.py
#                           # via --list; nothing is hard-coded here)
#
# Keeps to the stock toolchain: python + pytest only.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# test_sweep_engine.py runs the serial-vs-parallel parity tests with a
# 2-worker process pool, so every CI invocation exercises the fan-out path.
# Both pytest invocations run with -W error: the suite emits no warnings,
# and a new one fails CI instead of scrolling past.
ENGINE_TESTS=(
  tests/test_kernel_parity.py
  tests/test_network_trainer.py
  tests/test_cache_release.py
  tests/test_dtype_policy.py
  tests/test_mapper_cache.py
  tests/test_routing_cache.py
  tests/test_sweep_regression.py
  tests/test_sweep_engine.py
  tests/test_lockstep.py
  tests/test_optim.py
  tests/test_spec.py
  tests/test_run_store.py
  tests/test_cli.py
  tests/test_golden.py
  tests/test_hardware_sim.py
  tests/test_hardware_eval.py
  tests/test_analysis.py
  tests/test_faultinject.py
  tests/test_resilience.py
  tests/test_graph.py
  tests/test_scheduler.py
  tests/test_store_concurrency.py
  tests/test_obs.py
  tests/test_obs_integration.py
)

# Contract linter gate: the tree must be free of determinism/dtype/parity/
# fingerprint violations (see src/repro/analysis/README.md).  Runs in every
# mode — it is the cheapest check in the pipeline (~1 s).
run_lint() {
  echo "== contract linter: python -m repro lint =="
  python -m repro lint
}

if [[ "${1:-}" == "--quick" ]]; then
  run_lint
  echo "== quick: kernel parity and engine regression tests (2-worker sweep parity included) =="
  python -m pytest -x -q -W error "${ENGINE_TESTS[@]}"
else
  run_lint
  echo "== tier-1: full test + benchmark suite (kernel + sweep parity included) =="
  python -m pytest -x -q -W error

  echo "== CLI smoke: spec -> run -> artifact -> resume -> show/compare =="
  CLI_STORE="$(mktemp -d)"
  trap 'rm -rf "$CLI_STORE"' EXIT
  python -m repro run table1 --scale tiny --workers 1 --store "$CLI_STORE"
  # Re-running the identical spec must resume the complete artifact: zero new
  # training ("0 computed" in the summary).
  RESUME_OUT="$(python -m repro run table1 --scale tiny --workers 1 --store "$CLI_STORE" --quiet)"
  echo "$RESUME_OUT"
  grep -q "0 computed, 1 reused" <<< "$RESUME_OUT"
  python -m repro show table1 --store "$CLI_STORE" > /dev/null
  python -m repro compare table1 table1 --store "$CLI_STORE" > /dev/null
  python -m repro list --store "$CLI_STORE" > /dev/null

  echo "== CLI chaos smoke: injected worker kill -> partial(3) -> resume(0) =="
  # A worker that dies on every attempt of point 0 must leave a partial
  # artifact (exit 3) whose surviving point resumes for free: the rerun
  # retrains only the killed point ("1 computed, 1 reused"), and a third run
  # is a pure artifact read ("0 computed").
  CHAOS_FAULTS='[{"site": "point", "kind": "kill", "index": 0, "attempts": [1, 2, 3]}]'
  CHAOS_ARGS=(run figure6 --workload mlp --scale tiny --grid 0.05 0.3
              --workers 2 --store "$CLI_STORE" --quiet)
  set +e
  python -m repro "${CHAOS_ARGS[@]}" --faults "$CHAOS_FAULTS"
  CHAOS_RC=$?
  set -e
  [[ "$CHAOS_RC" == 3 ]] || { echo "expected exit 3 (partial), got $CHAOS_RC"; exit 1; }
  HEAL_OUT="$(python -m repro "${CHAOS_ARGS[@]}")"
  echo "$HEAL_OUT"
  grep -q "1 computed, 1 reused" <<< "$HEAL_OUT"
  REREAD_OUT="$(python -m repro "${CHAOS_ARGS[@]}")"
  grep -q "0 computed" <<< "$REREAD_OUT"

  echo "== CLI chaos smoke: lost lockstep stack -> serial re-run(0), clean payload =="
  # figure8 trains its λ points as lockstep stacks (the parent's stack of
  # two beside a forked worker's stack of one on two or more CPUs), which
  # are every point's attempt 1.  The fault fires in the parent before any
  # stack trains, so it costs only time: every point re-runs serially from
  # its pristine copy at attempt 2, all three compute (exit 0), and the
  # result payload equals a clean run's.
  FIG8_CLEAN="$(python -m repro run figure8 --scale tiny --no-store --json)"
  FIG8_CHAOS="$(python -m repro run figure8 --scale tiny --no-store --json \
    --faults '[{"site": "point", "kind": "raise", "index": 0, "attempts": [1]}]')"
  python - "$FIG8_CLEAN" "$FIG8_CHAOS" <<'EOF'
import json, sys
clean, chaos = (json.loads(arg) for arg in sys.argv[1:])
assert not chaos["failed_points"], chaos["failed_points"]
assert chaos["computed_points"] == 3, chaos["computed_points"]
assert chaos["result"] == clean["result"], "the lockstep fallback moved the payload"
print("lockstep chaos smoke OK: 3 computed, payload equals the clean run")
EOF

  echo "== λ-split smoke: figure8 payload under the full CPU mask and under one CPU =="
  # With two or more usable CPUs figure8's parent trains λ = 0.01 and 0.03
  # as one stack while a forked worker trains 0.06; under one CPU all three
  # train as one stack in the parent.  A stack is bit-identical per point
  # and the stacks' routing-cache counters merge into one cache's count, so
  # the payload cannot depend on the CPU mask.  The clean run above used
  # the full mask; this one pins itself to one CPU before it starts.
  FIG8_ONE_CPU="$(python - <<'EOF'
import os, sys

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
command = [sys.executable, "-m", "repro", "run", "figure8", "--scale", "tiny",
           "--no-store", "--json"]
os.execv(sys.executable, command)
EOF
)"
  python - "$FIG8_CLEAN" "$FIG8_ONE_CPU" <<'EOF'
import json, os, sys

all_cpus, one_cpu = (json.loads(arg) for arg in sys.argv[1:])
assert all_cpus["result"] == one_cpu["result"], "the CPU mask moved the figure8 payload"
print("λ-split smoke OK: %d CPUs and 1 CPU give the same payload"
      % len(os.sched_getaffinity(0)))
EOF

  echo "== payload digest smoke: perfbench --workload all --seconds 0 =="
  # One fresh run, one resume run and the set-up children per benchmark
  # workload, at small scale: every run's result payload must hash to its
  # digest in perfbench/digests.json, so a change that moves a payload fails
  # here and not only at the golden tiny presets.  On a host whose platform
  # key (machine, numpy, CPU features, OpenBLAS kernel) differs from the one
  # digests.json records there is no digest to match, and the step only
  # checks that the later runs agree with the first fresh run: the resume
  # run here, and the traced run too under --trace 1.
  #
  # The same runs pin the working set: every workload's peak RSS must stay
  # at or under 75 MiB.  Synthesis draws its noise in ~1 MiB row blocks and
  # standardizes in place, and evaluation predicts at the training batch
  # size, so on a 2-core x86_64 host the runs read 55.8 (fig7), 59.7 (fig8)
  # and 67.4 MiB (hw-eval), against 80.3-83.1 MiB when synthesis held a
  # split-sized noise array and a standardized copy and evaluation ran 256
  # samples a batch.  Putting back either alone trips the ceiling: the
  # whole-split synthesis reads hw-eval at 83.1 MiB, the 256-sample
  # evaluation fig7 at 79.9 and fig8 at 81.0 MiB.  75 MiB sits between the
  # two levels, 7.6 MiB above the highest reading.
  BENCH_OUT="$(python3 perfbench/run.py --workload all --seconds 0)"
  echo "$BENCH_OUT"
  tail -n 1 <<< "$BENCH_OUT" | python -c '
import json, sys
summary = json.load(sys.stdin)
assert summary["failed"] == 0, "perfbench: %d of %d children failed" % (
    summary["failed"], summary["attempted"])
print("digest smoke OK: %d children, 0 failed" % summary["attempted"])
CEILING_MB = 75.0
peaks = {name[: -len(".peak_rss_mb")]: metric["value"]
         for name, metric in summary["metrics"].items() if name.endswith(".peak_rss_mb")}
assert peaks, "perfbench reported no peak_rss_mb"
over = {name: peak for name, peak in peaks.items() if peak > CEILING_MB}
assert not over, "peak RSS above %.0f MiB: %s" % (CEILING_MB, over)
print("RSS ceiling OK: " + ", ".join(
    "%s %.1f MiB" % (name, peak) for name, peak in sorted(peaks.items())))
'

  echo "== CLI smoke: device-level hardware evaluation (figure_hw) =="
  python -m repro run figure_hw --workload mlp --scale tiny --store "$CLI_STORE" --quiet
  python -m repro run figure_hw_baseline --workload mlp --scale tiny --store "$CLI_STORE" --quiet
  # The compare view must render the per-corner accuracy deltas between the
  # dense baseline and the Scissor-compressed run.  (Capture instead of
  # piping into `grep -q`, which would close the pipe mid-write.)
  HW_COMPARE="$(python -m repro compare figure_hw_baseline figure_hw --store "$CLI_STORE")"
  grep -q "simulated hardware accuracy" <<< "$HW_COMPARE"

  echo "== corner-pass smoke: figure_hw payload under the full CPU mask and under one CPU =="
  # The hardware stage scores every device corner in one pass whose runs of
  # test batches are split across the CPUs the process may use, in forked
  # workers.  Rows are independent and the batches are fixed, so the
  # payload cannot depend on the CPU mask.  1,024 test samples make 4
  # batches of 256; the second run pins itself to one CPU before it starts.
  HW_SPEC="$CLI_STORE/figure_hw_1024.json"
  python - "$HW_SPEC" <<'EOF'
import json, sys
from repro.experiments import REGISTRY

spec = REGISTRY.get("figure_hw", scale_overrides={"test_samples": 1024})
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(spec.to_dict(), handle)
EOF
  HW_ALL_CPUS="$(python -m repro run "$HW_SPEC" --no-store --json)"
  HW_ONE_CPU="$(python - "$HW_SPEC" <<'EOF'
import os, sys

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
command = [sys.executable, "-m", "repro", "run", sys.argv[1], "--no-store", "--json"]
os.execv(sys.executable, command)
EOF
)"
  python - "$HW_ALL_CPUS" "$HW_ONE_CPU" <<'EOF'
import json, os, sys

all_cpus, one_cpu = (json.loads(arg) for arg in sys.argv[1:])
assert all_cpus["result"] == one_cpu["result"], "the CPU mask moved the figure_hw payload"
print("corner-pass smoke OK: %d CPUs and 1 CPU give the same payload"
      % len(os.sched_getaffinity(0)))
EOF

  echo "== scheduler smoke: submit x2 -> daemon interleaves -> kill -9 -> cancel -> drain recovers =="
  # Two specs are queued, the daemon runs them concurrently (node events must
  # switch jobs mid-run), then the daemon is killed hard mid-flight.  One job
  # is cancelled while stuck "running"; a --drain restart must requeue both,
  # honor the cancel, and finish the survivor from its journaled progress.
  SCHED_STORE="$CLI_STORE/sched"
  SUBMIT_ARGS=(figure6 --workload mlp --scale tiny
               --grid 0.02 0.05 0.1 0.2 0.3 0.5
               --store "$SCHED_STORE" --json)
  JOB_A="$(python -m repro submit "${SUBMIT_ARGS[@]}" \
           | python -c 'import json, sys; print(json.load(sys.stdin)["job_id"])')"
  JOB_B="$(python -m repro submit "${SUBMIT_ARGS[@]}" --seed 7 \
           | python -c 'import json, sys; print(json.load(sys.stdin)["job_id"])')"
  # The daemon (and only the daemon) runs with a benign injected 0.5 s hang
  # per point, so each 6-point job stays in flight for seconds — long enough
  # to observe interleaving and to kill -9 it provably mid-run.
  REPRO_FAULTS='[{"site": "point", "kind": "hang", "seconds": 0.5}]' \
    python -m repro serve-jobs --store "$SCHED_STORE" --workers 2 --poll 0.1 \
    > "$CLI_STORE/daemon.log" 2>&1 &
  DAEMON_PID=$!
  # Wait until the node events switch jobs at least twice (what the
  # interleave check below asserts; the cancelled job adds no events after
  # the restart), then kill the daemon hard.
  python - "$SCHED_STORE" <<'PY'
import sys, time
from repro.scheduler import JobQueue
from repro.scheduler.daemon import default_queue_root

queue = JobQueue(default_queue_root(sys.argv[1]))
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    nodes = [e["job"] for e in queue.events() if e["event"].startswith("node-")]
    if sum(1 for x, y in zip(nodes, nodes[1:]) if x != y) >= 2:
        sys.exit(0)
    time.sleep(0.2)
sys.exit("the daemon's node events never switched jobs twice")
PY
  kill -9 "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true
  python -m repro cancel "$JOB_A" --store "$SCHED_STORE"
  python -m repro serve-jobs --store "$SCHED_STORE" --workers 2 --poll 0.1 --drain
  python -m repro status --store "$SCHED_STORE" --json | python -c '
import json, sys
rows = {row["job_id"]: row for row in json.load(sys.stdin)}
a, b = sys.argv[1], sys.argv[2]
assert rows[a]["state"] == "cancelled", rows[a]
assert rows[b]["state"] == "done", rows[b]
assert rows[b]["artifact"]["complete"] is True, rows[b]
print(f"status OK: cancelled job stayed cancelled, survivor done")
' "$JOB_A" "$JOB_B"
  python - "$SCHED_STORE" <<'PY'
import sys
from repro.scheduler import JobQueue
from repro.scheduler.daemon import default_queue_root

queue = JobQueue(default_queue_root(sys.argv[1]))
nodes = [e["job"] for e in queue.events() if e["event"].startswith("node-")]
switches = sum(1 for x, y in zip(nodes, nodes[1:]) if x != y)
assert switches >= 2, f"jobs never interleaved: {nodes}"
requeued = [e for e in queue.events() if e["event"] == "job-requeued"]
assert requeued, "kill -9 recovery never requeued the in-flight jobs"
print(f"interleave OK: {len(nodes)} node events, {switches} job switches, "
      f"{len(requeued)} requeued after crash")
PY
  python -m repro watch "$JOB_B" --store "$SCHED_STORE" --timeout 30 > /dev/null
  # figure8 is registered lockstep: its stacked λ points run as one
  # supervised `points` node between the shared clip and the assembly.  The
  # daemon runs jobs in threads, so on two or more CPUs the split's worker
  # forks from a threaded parent here.
  JOB_L="$(python -m repro submit figure8 --scale tiny \
           --store "$SCHED_STORE" --json \
           | python -c 'import json, sys; print(json.load(sys.stdin)["job_id"])')"
  python -m repro serve-jobs --store "$SCHED_STORE" --workers 1 --poll 0.1 --drain
  python - "$SCHED_STORE" "$JOB_L" <<'PY'
import sys
from repro.scheduler import JobQueue
from repro.scheduler.daemon import default_queue_root

queue = JobQueue(default_queue_root(sys.argv[1]))
job = sys.argv[2]
nodes = [
    e["node"] for e in queue.events()
    if e["job"] == job and e["event"] == "node-done"
]
assert nodes == ["baseline", "clip", "points", "assemble"], nodes
state = queue.state(job)
assert state["state"] == "done", state
print(f"lockstep job OK: nodes {nodes}")
PY
  python -m repro status --store "$SCHED_STORE" --json | python -c '
import json, sys
row = {row["job_id"]: row for row in json.load(sys.stdin)}[sys.argv[1]]
assert row["artifact"]["complete"] is True, row
print("lockstep artifact complete")
' "$JOB_L"

  echo "== observability smoke: traced scheduler jobs -> node accounting + exact percentile agreement =="
  # A traced scheduler run: two queued jobs on one worker guarantee at
  # least one node dispatch observes a nonzero queue depth.  The exported
  # graph.node_s percentiles must agree *exactly* with the node records'
  # elapsed_s in traces.jsonl (same nearest-rank percentile over the same
  # observations), and the graph.nodes.<status> counters must account for
  # every node record.
  OBS_STORE="$CLI_STORE/obs-smoke"
  python -m repro submit figure6 --workload mlp --scale tiny --grid 0.05 0.3 \
    --store "$OBS_STORE" --json > /dev/null
  python -m repro submit figure6 --workload mlp --scale tiny --grid 0.05 0.3 \
    --seed 7 --store "$OBS_STORE" --json > /dev/null
  python -m repro serve-jobs --store "$OBS_STORE" --workers 1 --poll 0.1 \
    --drain --metrics > /dev/null
  python -m repro metrics --store "$OBS_STORE" > /dev/null
  python -m repro trace --kind node --store "$OBS_STORE" --json | python -c '
import json, sys
summary = json.load(sys.stdin)["summary"]["nodes"]
assert summary["count"] > 0, summary
depths = summary["queue_depth_samples"]
assert depths and max(depths) > 0, depths
print("scheduler trace OK: %d node records, max queue depth %d"
      % (summary["count"], max(depths)))
'
  python - "$OBS_STORE" <<'PY'
import sys
from repro.obs import (
    load_metrics_snapshot, metrics_path, obs_root, percentile, read_trace_file,
    traces_path,
)

root = obs_root(sys.argv[1])
snap = load_metrics_snapshot(metrics_path(root))
nodes = [r for r in read_trace_file(traces_path(root)) if r.get("kind") == "node"]
counted = sum(
    v for k, v in snap["counters"].items() if k.startswith("graph.nodes.")
)
assert counted == len(nodes) > 0, (counted, len(nodes))
elapsed = [r["elapsed_s"] for r in nodes]
hist = snap["histograms"]["graph.node_s"]
assert hist["count"] == len(elapsed), (hist["count"], len(elapsed))
for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
    assert hist[key] == percentile(elapsed, q), (key, hist[key], percentile(elapsed, q))
print(f"observability OK: {counted} node records accounted, "
      f"p99 node time {hist['p99']*1000:.3f} ms agrees with traces.jsonl")
PY
fi

if [[ "${1:-}" == "--bench" ]]; then
  echo "== benchmark trajectories (suites from run_benchmarks.py --list) =="
  for suite in $(python benchmarks/run_benchmarks.py --list); do
    python benchmarks/run_benchmarks.py --suite "$suite" --check
  done
fi

echo "CI OK"
