"""Tests for the observability stack (``repro.obs``).

Unit coverage: typed instruments (counter monotonicity, histogram exact
nearest-rank percentiles, registry type-collision errors), null-object
no-ops, tracer ring/checksum/span semantics, the offline trace summary,
and the ``metrics`` / ``trace`` CLI verbs.
"""

import json
import math
import threading

import pytest

from repro.exceptions import ReproError
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
    create_observability,
    load_metrics_snapshot,
    metrics_path,
    obs_root,
    percentile,
    read_trace_file,
    record_checksum,
    strip_timing_fields,
    summarize_traces,
    traces_path,
    write_metrics_snapshot,
)
from repro.obs.metrics import Histogram


# ------------------------------------------------------------- percentiles
class TestPercentile:
    def test_nearest_rank_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 95) == 10.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 10.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([3.5], 50) == 3.5
        assert percentile([3.5], 99) == 3.5

    def test_order_independent(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_empty_is_nan_and_bad_q_raises(self):
        assert math.isnan(percentile([], 99))
        with pytest.raises(ReproError):
            percentile([1.0], 101)


# -------------------------------------------------------------- instruments
class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.0)
        gauge.add(-1.5)
        assert gauge.value == 1.5

    def test_histogram_snapshot_percentiles_are_exact(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        observations = [0.05, 0.2, 0.3, 0.7, 2.0]
        for value in observations:
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["buckets"] == {"le_0.1": 1, "le_1": 3, "overflow": 1}
        for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
            assert snap[key] == percentile(observations, q)
        assert snap["min"] == 0.05 and snap["max"] == 2.0

    def test_histogram_ring_keeps_recent_window(self):
        histogram = Histogram("h", buckets=(1.0,), sample_window=4)
        for value in range(10):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["count"] == 10  # totals keep everything
        assert snap["window"] == 4  # percentiles cover the recent window
        assert snap["p50"] == percentile([6.0, 7.0, 8.0, 9.0], 50)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("h", buckets=())

    def test_registry_shares_and_type_checks(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_timer_observes_elapsed(self):
        ticks = iter([1.0, 1.25])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.timer("t"):
            pass
        snap = registry.snapshot()["histograms"]["t"]
        assert snap["count"] == 1
        assert snap["p50"] == pytest.approx(0.25)

    def test_snapshot_is_canonical_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("depth").set(3)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["gauges"] == {"depth": 3.0}

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestNullObjects:
    def test_null_registry_is_disabled_and_stateless(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("c").inc()
        NULL_REGISTRY.gauge("g").set(9)
        NULL_REGISTRY.histogram("h").observe(1.0)
        with NULL_REGISTRY.timer("t"):
            pass
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_null_tracer_emits_nothing(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.emit("node", node="x") is None
        with NULL_TRACER.span("s"):
            pass
        assert NULL_TRACER.records() == []

    def test_null_obs_reports_disabled(self):
        assert not NULL_OBS.enabled
        assert Observability(metrics=MetricsRegistry()).enabled


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_emit_assigns_sequential_seq_and_checksum(self, tmp_path):
        tracer = Tracer(tmp_path / "traces.jsonl")
        first = tracer.emit("node", node="a")
        second = tracer.emit("node", node="b")
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["sha256"] == record_checksum(first)

    def test_ring_buffer_is_bounded_oldest_first(self):
        tracer = Tracer(None, capacity=3)
        for index in range(5):
            tracer.emit("node", node=index)
        kept = [record["node"] for record in tracer.records()]
        assert kept == [2, 3, 4]

    def test_file_roundtrip_skips_corruption(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(path)
        tracer.emit("node", node="keep")
        tampered = tracer.emit("node", node="tamper")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('"a string, not an object"\n')
            broken = dict(tampered, node="edited")  # checksum now wrong
            handle.write(json.dumps(broken) + "\n")
        records = read_trace_file(path)
        assert [r["node"] for r in records] == ["keep", "tamper"]

    def test_span_parent_links_and_error_status(self):
        tracer = Tracer(None)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        spans = {record["name"]: record for record in tracer.records("span")}
        assert spans["inner"]["parent"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent"] is None
        assert spans["boom"]["status"] == "error"
        assert spans["boom"]["parent"] is None

    def test_strip_timing_fields_removes_only_timing(self):
        record = {
            "kind": "node",
            "node": "baseline",
            "ready_wait_s": 0.1,
            "elapsed_s": 0.3,
            "sha256": "deadbeef",
            "status": "done",
        }
        assert strip_timing_fields(record) == {
            "kind": "node",
            "node": "baseline",
            "status": "done",
        }

    def test_close_stops_emission(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.emit("node", node="a")
        tracer.close()
        assert tracer.emit("node", node="b") is None
        assert len(read_trace_file(tmp_path / "t.jsonl")) == 1


class TestSummarize:
    def test_summary_matches_percentile_helper(self):
        records = [
            {"kind": "node", "status": "done", "ready_wait_s": 0.0,
             "elapsed_s": elapsed}
            for elapsed in (0.1, 0.2, 0.3, 0.4)
        ]
        records.append({"kind": "node", "status": "cancelled"})
        summary = summarize_traces(records)["nodes"]
        assert summary["count"] == 5
        assert summary["statuses"] == {"cancelled": 1, "done": 4}
        assert summary["elapsed_s"]["count"] == 4  # untimed records skipped
        for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
            assert summary["elapsed_s"][key] == percentile(
                [0.1, 0.2, 0.3, 0.4], q
            )

    def test_node_summary_collects_queue_depths(self):
        records = [
            {"kind": "node", "status": "done", "queue_depth": d,
             "ready_wait_s": 0.01, "elapsed_s": 0.5}
            for d in (1, 0, 2)
        ]
        summary = summarize_traces(records)["nodes"]
        assert summary["queue_depth_samples"] == [1, 0, 2]
        assert summary["statuses"] == {"done": 3}


# ---------------------------------------------------------------- snapshots
class TestSnapshotFiles:
    def test_write_and_load_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("graph.nodes.done").inc(3)
        path = write_metrics_snapshot(registry, tmp_path / "metrics.json")
        snapshot = load_metrics_snapshot(path)
        assert snapshot["counters"]["graph.nodes.done"] == 3

    def test_load_missing_or_malformed_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_metrics_snapshot(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ReproError):
            load_metrics_snapshot(bad)

    def test_create_observability_layout(self, tmp_path):
        root = obs_root(tmp_path)
        obs = create_observability(root)
        try:
            assert obs.enabled
            assert obs.tracer.path == traces_path(root)
            assert metrics_path(root).parent == root
        finally:
            obs.tracer.close()


# ---------------------------------------------------------------- CLI verbs
class TestObsCli:
    def test_metrics_missing_snapshot_exits_2(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["metrics", "--store", str(tmp_path)]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_metrics_renders_snapshot(self, tmp_path, capsys):
        from repro.experiments.cli import main

        registry = MetricsRegistry()
        registry.counter("graph.nodes.done").inc(7)
        registry.histogram("graph.node_s").observe(0.002)
        root = obs_root(tmp_path)
        root.mkdir(parents=True)
        write_metrics_snapshot(registry, metrics_path(root))
        assert main(["metrics", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "graph.nodes.done" in out and "7" in out
        assert main(["metrics", "--store", str(tmp_path), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["graph.nodes.done"] == 7

    def test_trace_filters_and_summarizes(self, tmp_path, capsys):
        from repro.experiments.cli import main

        root = obs_root(tmp_path)
        tracer = Tracer(traces_path(root))
        with tracer.span("stage"):
            pass
        tracer.emit("node", run="abc123", job="job-1", node="baseline",
                    status="done", queue_depth=2, ready_wait_s=0.0,
                    elapsed_s=0.1)
        tracer.close()
        assert main(["trace", "--store", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["spans"]["stage"]["count"] == 1
        assert payload["summary"]["nodes"]["queue_depth_samples"] == [2]
        assert len(payload["records"]) == 2
        # Filter by job id: only the node record survives.
        assert main(["trace", "job-1", "--store", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "spans" not in payload["summary"]
        assert payload["summary"]["nodes"]["count"] == 1
        # Kind filter plus pretty rendering.
        assert main(["trace", "--kind", "span", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "nodes:" not in out

    def test_trace_reads_streams_holding_retired_record_kinds(self, tmp_path, capsys):
        # Streams written before the serving layer was retired hold
        # ``request`` records: they stay listed but feed no summary.
        from repro.experiments.cli import main

        tracer = Tracer(traces_path(obs_root(tmp_path)))
        tracer.emit("request", request_id=1, status="served", latency_s=0.01)
        tracer.emit("node", run="abc123", node="baseline", status="done",
                    ready_wait_s=0.0, elapsed_s=0.1)
        tracer.close()
        assert main(["trace", "--store", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["summary"]) == {"nodes"}
        assert payload["summary"]["nodes"]["count"] == 1
        assert [r["kind"] for r in payload["records"]] == ["request", "node"]
        assert main(["trace", "--store", str(tmp_path)]) == 0
        assert "nodes: 1" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--kind", "request", "--store", str(tmp_path)])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_trace_missing_stream_exits_2(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["trace", "--store", str(tmp_path)]) == 2
        assert "no trace stream" in capsys.readouterr().err
