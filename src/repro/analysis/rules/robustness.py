"""Robustness rules: no swallowed exceptions, no unbounded blocking waits.

The resilience layer (PR 7) is built on one invariant: every failure is
*accounted for* — retried, recorded as a :class:`PointFailure`, quarantined,
or re-raised.  A ``try: ... except Exception: pass`` in the execution or
persistence path silently converts a lost point into a missing result, which
the artifact then reports as "complete".  That is precisely the failure mode
the fault-tolerance work exists to eliminate, so the handlers themselves are
linted: a broad catch in the supervised modules must either re-raise or log.

The job scheduler adds a sibling invariant: **every blocking wait is
bounded**.  A ``queue.get()`` / ``Event.wait()`` / ``Future.result()``
without a timeout in a daemon worker turns one stuck dependency into a
wedged worker thread — and a wedged worker silently halves capacity with
no failure accounted anywhere.  :class:`UnboundedWaitRule` enforces the
no-hang contract statically over ``repro/scheduler/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register

#: Module path fragments whose exception handlers carry the accounting burden.
_SCOPED_PATHS = (
    "repro/experiments/",
    "repro/scheduler/",
    "repro/utils/serialization.py",
    "repro/utils/faultinject.py",
)

#: Exception names too broad to catch without re-raising or logging.
_BROAD_NAMES = {"Exception", "BaseException"}

#: Logging-call attribute tails that count as "the failure was reported".
_LOG_TAILS = {"debug", "info", "warning", "error", "exception", "critical", "warn"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception:`` and ``except BaseException:``."""
    if handler.type is None:
        return True
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in _BROAD_NAMES:
            return True
    return False


def _accounts_for_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler body re-raises or reports the exception."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _LOG_TAILS:
                return True
            if isinstance(func, ast.Name) and func.id in {"warn", "print"}:
                return True
    return False


@register
class SwallowedExceptionRule(Rule):
    """Broad except handlers in engine/store modules must log or re-raise."""

    id = "swallowed-exception"
    summary = (
        "engine/store modules may not silently swallow broad exceptions; "
        "handlers must re-raise, log, or narrow the caught type"
    )
    rationale = (
        "A bare `except: pass` in the sweep engine once turned a crashed "
        "point into a silently missing result inside an artifact marked "
        "complete.  The resilience layer's contract is that every failure "
        "is retried, recorded, or quarantined — so any broad catch in the "
        "execution/persistence path must visibly account for the error."
    )

    def applies_to(self, relpath: str) -> bool:
        return any(fragment in relpath for fragment in _SCOPED_PATHS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if node.type is None:
                # Bare except also traps SystemExit/KeyboardInterrupt — the
                # SIGINT drain path depends on those propagating, so a bare
                # except here is a finding even when it logs.
                yield ctx.finding(
                    self.id,
                    node,
                    "bare `except:` traps KeyboardInterrupt/SystemExit and "
                    "breaks the SIGINT drain path; catch a concrete "
                    "exception type",
                )
                continue
            if not _accounts_for_failure(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "broad exception handler neither re-raises nor logs; a "
                    "failure reaching it vanishes from the run accounting — "
                    "narrow the type, log it, or re-raise",
                )


#: Attribute names whose calls block until resolution on stdlib primitives.
#: ``.get`` covers ``queue.Queue.get``; ``.wait`` covers ``Event``/
#: ``Condition``/``Barrier``; ``.result`` covers futures.
_BLOCKING_ATTRS = {"get", "wait", "result"}


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_bounded_timeout(call: ast.Call) -> bool:
    """True when the call passes a (non-``None``) timeout argument."""
    for keyword in call.keywords:
        if keyword.arg == "timeout":
            return not _is_none(keyword.value)
        if keyword.arg is None:  # **kwargs — assume the caller knows
            return True
    if isinstance(call.func, ast.Attribute) and call.func.attr == "get":
        # queue.Queue.get(block, timeout): a second positional is the timeout.
        return len(call.args) >= 2 and not _is_none(call.args[1])
    # Event.wait(timeout) / Condition.wait(timeout) / Future.result(timeout):
    # the first positional is the timeout.
    return len(call.args) >= 1 and not _is_none(call.args[0])


def _looks_like_mapping_get(call: ast.Call) -> bool:
    """``d.get(key)`` / ``d.get(key, default)`` — dict lookup, not a queue pop.

    ``queue.Queue.get`` positionals are ``(block, timeout)`` — a boolean and
    a number — so a single non-boolean positional (or a boolean keyword
    ``default=``) marks the mapping idiom.  Bool literals stay suspect:
    ``q.get(True)`` is a blocking pop.
    """
    if call.keywords and all(k.arg not in (None, "block", "timeout") for k in call.keywords):
        return True
    if len(call.args) == 2:
        # d.get(key, default) vs q.get(block, timeout): treat as mapping
        # unless the first arg is a boolean literal (the queue idiom).
        first = call.args[0]
        return not (isinstance(first, ast.Constant) and isinstance(first.value, bool))
    if len(call.args) == 1:
        first = call.args[0]
        return not (isinstance(first, ast.Constant) and isinstance(first.value, bool))
    return False


@register
class UnboundedWaitRule(Rule):
    """Blocking waits in the job scheduler must carry explicit timeouts."""

    id = "unbounded-wait"
    summary = (
        "scheduler-layer queue.get / Event.wait / Condition.wait / "
        "Future.result calls must pass an explicit, non-None timeout"
    )
    rationale = (
        "The no-hang contract of the job scheduler daemon: one stuck "
        "dependency (a dead worker thread, a wedged graph node) must "
        "surface as a typed failure or a requeue, never as a worker "
        "blocked forever — an unbounded wait silently removes a worker "
        "from capacity with no failure accounted anywhere.  Justified "
        "exceptions carry a `# repro: ignore[unbounded-wait]` with the "
        "reasoning."
    )

    def applies_to(self, relpath: str) -> bool:
        return "repro/scheduler/" in relpath

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in _BLOCKING_ATTRS:
                continue
            if func.attr == "get" and _looks_like_mapping_get(node):
                continue
            if _has_bounded_timeout(node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"blocking `.{func.attr}()` call without a bounded timeout; "
                "the scheduler no-hang contract requires every wait to time "
                "out (pass `timeout=`, or justify with "
                "`# repro: ignore[unbounded-wait]`)",
            )
