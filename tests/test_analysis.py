"""Tests of the :mod:`repro.analysis` contract linter.

Each rule gets three fixtures — violating, clean, suppressed — plus unit
tests of the registry, the suppression parser, the reporters, and the
semantic fingerprint-coverage rule (via injected dataclasses).
"""

import json
import textwrap
from dataclasses import dataclass

import pytest

from repro.analysis import (
    all_rules,
    get_rule,
    iter_python_files,
    parse_suppressions,
    render_json,
    render_rule_list,
    render_text,
    run_analysis,
)
from repro.analysis.core import PARSE_ERROR
from repro.analysis.rules.fingerprint import (
    ACKNOWLEDGED_FIELDS,
    EXCLUDED_FIELDS,
    coverage_messages,
)
from repro.experiments.runner import SweepEngine
from repro.hardware.sim import HardwareConfig


def lint(tmp_path, relpath, source, rules=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint it (file rules only)."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_analysis(
        [path], root=tmp_path, rules=rules, include_project_rules=False
    )


def rules_hit(report):
    return {finding.rule for finding in report.findings}


class TestRegistry:
    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_ids_unique_and_kebab_case(self):
        ids = [rule.id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert rule_id == rule_id.lower()
            assert " " not in rule_id

    def test_every_rule_documents_its_motivation(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.rationale, rule.id

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("no-such-rule")


class TestSuppressionParsing:
    def test_inline(self):
        table = parse_suppressions("x = 1  # repro: ignore[unseeded-random]\n")
        assert table == {1: {"unseeded-random"}}

    def test_multiple_ids(self):
        table = parse_suppressions("# repro: ignore[dtype-literal, wall-clock]\n")
        assert table == {1: {"dtype-literal", "wall-clock"}}

    def test_justification_text_before_tag(self):
        table = parse_suppressions(
            "# analytical model, deliberately float64.  repro: ignore[dtype-literal]\n"
        )
        assert table == {1: {"dtype-literal"}}

    def test_no_blanket_ignore(self):
        # An empty id list is not a valid suppression: nothing is waived.
        assert parse_suppressions("# repro: ignore[]\n") == {}

    def test_suppression_must_be_adjacent(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            # repro: ignore[unseeded-random]

            x = np.random.rand(3)
            """,
            rules=["unseeded-random"],
        )
        assert rules_hit(report) == {"unseeded-random"}

    def test_comment_line_above_suppresses(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            # seeding handled by the caller.  repro: ignore[unseeded-random]
            x = np.random.rand(3)
            """,
            rules=["unseeded-random"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestUnseededRandomRule:
    def test_violations(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import random

            import numpy as np

            a = np.random.rand(3)
            b = np.random.default_rng()
            c = random.random()
            """,
            rules=["unseeded-random"],
        )
        assert len(report.findings) == 3
        assert rules_hit(report) == {"unseeded-random"}

    def test_from_import_violation(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from random import shuffle

            shuffle([1, 2, 3])
            """,
            rules=["unseeded-random"],
        )
        assert len(report.findings) == 1

    def test_clean_seeded_streams(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            rng = np.random.default_rng(1234)
            x = rng.normal(size=3)
            """,
            rules=["unseeded-random"],
        )
        assert report.clean

    def test_rng_module_is_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "utils/rng.py",
            """\
            import numpy as np

            state = np.random.RandomState(0)
            """,
            rules=["unseeded-random"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            x = np.random.rand(3)  # repro: ignore[unseeded-random]
            """,
            rules=["unseeded-random"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestWallClockRule:
    def test_violations_in_fingerprinted_module(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/plan.py",
            """\
            import time

            stamp = time.time()
            label = time.strftime("%Y")
            """,
            rules=["wall-clock"],
        )
        assert len(report.findings) == 2

    def test_other_modules_are_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/report.py",
            """\
            import time

            stamp = time.time()
            """,
            rules=["wall-clock"],
        )
        assert report.clean

    def test_duration_timing_is_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/plan.py",
            """\
            import time

            t0 = time.perf_counter()
            label = time.strftime("%Y", time.gmtime(0))
            """,
            rules=["wall-clock"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/plan.py",
            """\
            import time

            # artifact metadata only.  repro: ignore[wall-clock]
            stamp = time.strftime("%Y-%m-%d")
            """,
            rules=["wall-clock"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestDtypeLiteralRule:
    def test_violations(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            a = np.asarray([1.0], dtype=np.float64)
            b = np.zeros(3, dtype="float32")
            c = np.ones(3, dtype=float)
            """,
            rules=["dtype-literal"],
        )
        assert len(report.findings) == 3

    def test_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            from repro.nn.dtype import as_float, default_dtype

            a = as_float([1.0])
            b = np.zeros(3, dtype=default_dtype())
            c = np.zeros(3, dtype=np.int64)
            """,
            rules=["dtype-literal"],
        )
        assert report.clean

    def test_policy_module_is_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "nn/dtype.py",
            """\
            import numpy as np

            DEFAULT = np.float64
            """,
            rules=["dtype-literal"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            # deliberately full precision.  repro: ignore[dtype-literal]
            a = np.asarray([1.0], dtype=np.float64)
            """,
            rules=["dtype-literal"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestTransposeContiguityRule:
    def test_violations(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            param.data = vt[:k, :].T
            weight.data = matrix.transpose(1, 0)
            """,
            rules=["transpose-contiguity"],
        )
        assert len(report.findings) == 2

    def test_clean_wrapped(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            param.data = np.ascontiguousarray(vt[:k, :].T)
            weight.data = matrix.T.copy()
            other.data = fresh_array
            """,
            rules=["transpose-contiguity"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            param.data = vt.T  # repro: ignore[transpose-contiguity]
            """,
            rules=["transpose-contiguity"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestBaselineAliasRule:
    def test_positional_violation(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/sweep.py",
            """\
            def run(baseline):
                return finetune_network(baseline)
            """,
            rules=["baseline-alias"],
        )
        assert len(report.findings) == 1

    def test_closure_keyword_violation(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/sweep.py",
            """\
            def make_tasks(net, points):
                def build(point):
                    return RankClippingPointTask(network=net, point=point)

                return [build(point) for point in points]
            """,
            rules=["baseline-alias"],
        )
        assert len(report.findings) == 1

    def test_clean_deepcopy(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/sweep.py",
            """\
            import copy

            def run(baseline):
                return finetune_network(copy.deepcopy(baseline))

            def make_tasks(net, points):
                def build(point):
                    return RankClippingPointTask(
                        network=copy.deepcopy(net), point=point
                    )

                return [build(point) for point in points]
            """,
            rules=["baseline-alias"],
        )
        assert report.clean

    def test_only_applies_to_experiments(self, tmp_path):
        report = lint(
            tmp_path,
            "hardware/sweep.py",
            """\
            def run(baseline):
                return finetune_network(baseline)
            """,
            rules=["baseline-alias"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "experiments/sweep.py",
            """\
            def run(baseline):
                # read-only evaluation.  repro: ignore[baseline-alias]
                return train_eval(baseline)
            """,
            rules=["baseline-alias"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestPoolPicklableRule:
    def test_lambda_violation(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda task: task + 1, tasks))
            """,
            rules=["pool-picklable"],
        )
        assert len(report.findings) == 1

    def test_local_def_violation(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                def point(task):
                    return task

                with ProcessPoolExecutor() as pool:
                    return pool.submit(point, tasks[0])
            """,
            rules=["pool-picklable"],
        )
        assert len(report.findings) == 1

    def test_engine_api_violation_without_executor_import(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            def run(engine, tasks):
                return engine.map_points(lambda task: task, tasks)
            """,
            rules=["pool-picklable"],
        )
        assert len(report.findings) == 1

    def test_clean_module_level_function(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def point(task):
                return task

            def run(tasks):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(point, tasks))
            """,
            rules=["pool-picklable"],
        )
        assert report.clean

    def test_builtin_map_is_not_a_pool(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                return list(map(lambda item: item, items))
            """,
            rules=["pool-picklable"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            def run(engine, tasks):
                # serial-only engine.  repro: ignore[pool-picklable]
                return engine.map_points(lambda task: task, tasks)
            """,
            rules=["pool-picklable"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestSwallowedExceptionRule:
    """Scoped to engine/store modules: broad handlers must log or re-raise."""

    SCOPE = "src/repro/experiments/engine_mod.py"

    def test_silent_broad_handler_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert rules_hit(report) == {"swallowed-exception"}

    def test_bare_except_always_flagged_even_with_logging(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            import logging

            def load(path):
                try:
                    return open(path).read()
                except:
                    logging.getLogger(__name__).warning("failed")
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert rules_hit(report) == {"swallowed-exception"}
        assert "KeyboardInterrupt" in report.findings[0].message

    def test_logging_handler_clean(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            import logging

            logger = logging.getLogger(__name__)

            def load(path):
                try:
                    return open(path).read()
                except Exception as error:
                    logger.warning("load failed: %s", error)
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert report.clean

    def test_reraising_handler_clean(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            def load(path):
                try:
                    return open(path).read()
                except Exception as error:
                    raise RuntimeError("load failed") from error
            """,
            rules=["swallowed-exception"],
        )
        assert report.clean

    def test_narrow_handler_clean(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            def load(path):
                try:
                    return open(path).read()
                except FileNotFoundError:
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert report.clean

    def test_out_of_scope_module_not_linted(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/nn/helpers.py",
            """\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert report.clean

    def test_suppression_works(self, tmp_path):
        report = lint(
            tmp_path,
            self.SCOPE,
            """\
            def probe(path):
                try:
                    return open(path).read()
                # best-effort probe; absence is a normal outcome.  repro: ignore[swallowed-exception]
                except Exception:
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestMutableDefaultRule:
    def test_violations(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            def f(cache={}):
                return cache

            def g(items=[], *, acc=list()):
                return items, acc
            """,
            rules=["mutable-default"],
        )
        assert len(report.findings) == 3

    def test_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            def f(cache=None, shape=(3, 3), label="x"):
                if cache is None:
                    cache = {}
                return cache
            """,
            rules=["mutable-default"],
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            def f(cache={}):  # repro: ignore[mutable-default]
                return cache
            """,
            rules=["mutable-default"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestFalsyDefaultRule:
    def test_routing_cache_shape_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from typing import Optional

            from repro.hardware.routing import RoutingAnalysisCache

            def analyse(routing_cache: Optional[RoutingAnalysisCache] = None):
                cache = routing_cache or RoutingAnalysisCache()
                return cache
            """,
            rules=["falsy-default"],
        )
        assert [finding.line for finding in report.findings] == [6]
        assert "RoutingAnalysisCache" in report.findings[0].message

    def test_union_pipe_string_and_inherited_forms_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from typing import Optional, Union

            class Bag:
                def __bool__(self):
                    return False

            class SmallBag(Bag):
                pass

            def f(a: Union[Bag, None] = None, b: "SmallBag | None" = None,
                  c: Optional["Sequential"] = None):
                return a or Bag(), b or SmallBag(), c or Sequential()
            """,
            rules=["falsy-default"],
        )
        assert len(report.findings) == 3

    def test_truthy_classes_and_is_none_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from typing import Optional

            from repro.lowrank.factorization import LowRankApproximator
            from repro.experiments.graph import ExperimentContext
            from repro.hardware.routing import RoutingAnalysisCache

            def run(context: Optional[ExperimentContext] = None,
                    approximator: Optional[LowRankApproximator] = None,
                    cache: Optional[RoutingAnalysisCache] = None,
                    label: Optional[str] = None):
                context = context or ExperimentContext()
                approximator = approximator or LowRankApproximator(method="pca")
                cache = RoutingAnalysisCache() if cache is None else cache
                return context, approximator, cache, label or str()
            """,
            rules=["falsy-default"],
        )
        assert report.clean

    def test_repo_sites_are_clean(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        report = run_analysis(
            [root / "src" / "repro"], root=root, rules=["falsy-default"],
            include_project_rules=False,
        )
        assert report.clean, report.findings

    def test_suppressed(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            from typing import Optional

            from repro.hardware.routing import RoutingAnalysisCache

            def analyse(routing_cache: Optional[RoutingAnalysisCache] = None):
                # fresh cache on purpose.  repro: ignore[falsy-default]
                return routing_cache or RoutingAnalysisCache()
            """,
            rules=["falsy-default"],
        )
        assert report.clean
        assert report.suppressed == 1


class TestFingerprintCoverageRule:
    def test_real_dataclasses_are_covered(self):
        assert coverage_messages() == []

    def test_repo_passes_project_rule(self):
        report = run_analysis([], rules=["fingerprint-coverage"])
        assert report.clean

    def test_new_hardware_field_is_caught(self):
        @dataclass(frozen=True)
        class ExtendedHardwareConfig(HardwareConfig):
            extra_knob: float = 0.0

        messages = coverage_messages(hardware_cls=ExtendedHardwareConfig)
        assert any(
            key == "HardwareConfig" and "extra_knob" in message
            for key, message in messages
        )

    def test_new_engine_field_is_caught(self):
        @dataclass(frozen=True)
        class ExtendedEngine(SweepEngine):
            extra_knob: bool = False

        messages = coverage_messages(engine_cls=ExtendedEngine)
        assert any(
            key == "SweepEngine" and "extra_knob" in message
            for key, message in messages
        )

    def test_acknowledging_the_new_field_clears_it(self):
        @dataclass(frozen=True)
        class ExtendedHardwareConfig(HardwareConfig):
            extra_knob: float = 0.0

        acknowledged = {
            key: set(names) for key, names in ACKNOWLEDGED_FIELDS.items()
        }
        acknowledged["HardwareConfig"].add("extra_knob")
        messages = coverage_messages(
            hardware_cls=ExtendedHardwareConfig, acknowledged=acknowledged
        )
        assert messages == []

    def test_stale_acknowledged_field_is_caught(self):
        acknowledged = {
            key: set(names) for key, names in ACKNOWLEDGED_FIELDS.items()
        }
        acknowledged["HardwareConfig"].add("ghost_field")
        messages = coverage_messages(acknowledged=acknowledged)
        assert any(
            "ghost_field" in message and "no longer exists" in message
            for _key, message in messages
        )

    def test_stale_exclusion_is_caught(self):
        excluded = {key: set(names) for key, names in EXCLUDED_FIELDS.items()}
        excluded["ExperimentSpec"].add("seed")
        messages = coverage_messages(excluded=excluded)
        assert any(
            "seed" in message and "exclusion list is stale" in message
            for _key, message in messages
        )


class TestEngine:
    def test_directory_walk_counts_and_dedup(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("import numpy as np\nx = np.random.rand()\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("zzz =\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        # Overlapping path args must not double-count or duplicate findings.
        report = run_analysis(
            [tmp_path, tmp_path / "pkg" / "a.py"],
            root=tmp_path,
            rules=["unseeded-random"],
            include_project_rules=False,
        )
        assert report.files_checked == 2
        assert len(report.findings) == 1
        assert report.findings[0].path == "pkg/a.py"

    def test_parse_error_becomes_finding(self, tmp_path):
        report = lint(tmp_path, "broken.py", "def f(:\n")
        assert rules_hit(report) == {PARSE_ERROR}

    def test_iter_python_files_skips_hidden(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [path.name for path in files] == ["b.py"]

    def test_findings_are_sorted(self, tmp_path):
        report = lint(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            b = np.asarray([1.0], dtype=np.float64)
            a = np.random.rand(3)
            """,
            rules=["unseeded-random", "dtype-literal"],
        )
        assert [finding.line for finding in report.findings] == sorted(
            finding.line for finding in report.findings
        )


class TestReporters:
    def _violating_report(self, tmp_path):
        return lint(
            tmp_path,
            "mod.py",
            "import numpy as np\nx = np.random.rand(3)\n",
            rules=["unseeded-random"],
        )

    def test_render_text_rows_and_summary(self, tmp_path):
        report = self._violating_report(tmp_path)
        text = render_text(report)
        assert "mod.py:2: [unseeded-random]" in text
        assert "1 finding(s)" in text
        assert "unseeded-random=1" in text

    def test_render_text_clean(self, tmp_path):
        report = lint(tmp_path, "mod.py", "x = 1\n")
        assert render_text(report).startswith("clean:")

    def test_render_json_round_trips(self, tmp_path):
        report = self._violating_report(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"
        assert payload["findings"][0]["line"] == 2

    def test_render_rule_list_names_every_rule(self):
        text = render_rule_list(all_rules())
        for rule in all_rules():
            assert rule.id in text
            assert "motivation:" in text


class TestSelfApplication:
    def test_shipped_tree_lints_clean(self):
        from repro.analysis.cli import default_lint_paths, repo_root

        report = run_analysis(default_lint_paths(), root=repo_root())
        assert report.clean, render_text(report)


class TestUnboundedWaitRule:
    REL = "src/repro/scheduler/pump.py"

    def test_flags_bare_blocking_calls(self, tmp_path):
        report = lint(
            tmp_path,
            self.REL,
            """\
            def pump(queue, event, future):
                item = queue.get()
                event.wait()
                return item, future.result()
            """,
            rules=["unbounded-wait"],
        )
        assert rules_hit(report) == {"unbounded-wait"}
        assert len(report.findings) == 3
        assert {finding.line for finding in report.findings} == {2, 3, 4}

    def test_timeout_forms_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            self.REL,
            """\
            def pump(queue, event, future, remaining):
                item = queue.get(timeout=0.05)
                event.wait(0.5)
                return item, future.result(timeout=remaining)
            """,
            rules=["unbounded-wait"],
        )
        assert report.clean

    def test_mapping_get_is_not_a_wait(self, tmp_path):
        report = lint(
            tmp_path,
            self.REL,
            """\
            def lookup(counters, key):
                return counters.get(key, 0) + counters.get("total")
            """,
            rules=["unbounded-wait"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "call, flagged",
        [
            ("jobs.get(timeout=None)", True),  # an explicit None waits forever
            ("jobs.get(True)", True),  # a bool positional is the block flag
            ("jobs.get(True, None)", True),
            ("jobs.get(block=True)", True),
            ("stop.wait(None)", True),
            ("jobs.get(True, 0.5)", False),
            ("handle.result(**options)", False),  # caller-supplied timeout
            ("limits.get(default=0)", False),  # a mapping keyword, not a pop
            ("limits.get(name)", False),
        ],
    )
    def test_call_forms(self, tmp_path, call, flagged):
        report = lint(
            tmp_path,
            self.REL,
            f"""\
            def pump(jobs, stop, handle, limits, name, options):
                return {call}
            """,
            rules=["unbounded-wait"],
        )
        assert [finding.line for finding in report.findings] == ([2] if flagged else [])

    def test_only_applies_to_the_scheduler_tree(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/experiments/pump.py",
            """\
            def pump(queue):
                return queue.get()
            """,
            rules=["unbounded-wait"],
        )
        assert report.clean

    def test_justified_suppression(self, tmp_path):
        report = lint(
            tmp_path,
            self.REL,
            """\
            def pump(handle):
                # Bounded by construction: the handle caps its own wait.
                return handle.result()  # repro: ignore[unbounded-wait]
            """,
            rules=["unbounded-wait"],
        )
        assert report.clean
        assert report.suppressed == 1
