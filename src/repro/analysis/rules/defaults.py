"""Default-argument rules: mutable defaults and falsy ``or`` defaults.

A ``def f(cache={})`` default is evaluated once at import and shared by
every call — in a library whose sweep engine re-enters the same functions
from multiple points (and whose workers ``fork`` an already-imported
process), a mutated default is cross-point, cross-process-image shared
state: the same class of defect as the PR 1 shared-baseline bug, hidden in
a signature.

The ``None`` default it asks for has its own trap: ``cache = cache or
Cache()`` builds a fresh object whenever ``cache`` is *falsy*, not only when
it is ``None``.  For a class that defines ``__len__`` or ``__bool__``, an
empty instance the caller passed in on purpose is falsy, and is silently
replaced.  That is how ``routing_cache or RoutingAnalysisCache()`` threw
away the empty cache a sweep shared across its points.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.analysis.astutil import call_name, dotted_name, walk_functions
from repro.analysis.core import FileContext, Finding, Rule, iter_python_files, register

#: Calls that build a fresh mutable container... once, at def time.
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
    "collections.deque",
}


def _mutable_default(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.List, ast.Set)):
        return "literal " + type(node).__name__.lower()
    if isinstance(node, ast.Dict):
        return "literal dict"
    if isinstance(node, ast.ListComp):
        return "list comprehension"
    if isinstance(node, (ast.DictComp, ast.SetComp)):
        return "comprehension"
    if isinstance(node, ast.Call):
        dotted = call_name(node)
        if dotted in _MUTABLE_FACTORIES:
            return f"{dotted}() call"
    return None


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments, anywhere."""

    id = "mutable-default"
    summary = "default arguments must be immutable (use None + in-body construction)"
    rationale = (
        "A mutable default is evaluated once at import and then shared by "
        "every caller — cross-sweep-point, cross-experiment hidden state, "
        "the signature-level twin of the PR 1 shared-baseline aliasing bug."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            named = list(args.posonlyargs) + list(args.args)
            positional = list(zip(named[len(named) - len(args.defaults):], args.defaults))
            keyword_only = [
                (arg, default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, default in positional + keyword_only:
                kind = _mutable_default(default)
                if kind is not None:
                    name = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        self.id,
                        default,
                        f"parameter {arg.arg!r} of {name}() defaults to a "
                        f"{kind}, evaluated once and shared across calls; "
                        "default to None and construct inside the body",
                    )


#: The ``src/repro`` package whose classes the falsy-default rule knows.
_PACKAGE = Path(__file__).resolve().parents[2]

#: Methods that make an instance's truth value depend on its state.
_TRUTH_METHODS = {"__len__", "__bool__"}


def _class_truth_table(tree: ast.Module) -> Dict[str, Tuple[bool, Tuple[str, ...]]]:
    """Class name → (defines ``__len__``/``__bool__`` itself, base-class names)."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            own = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in _TRUTH_METHODS
                for item in node.body
            )
            bases = tuple(
                (dotted_name(base) or "").rsplit(".", 1)[-1] for base in node.bases
            )
            table[node.name] = (own, bases)
    return table


def _falsy_names(table: Dict[str, Tuple[bool, Tuple[str, ...]]]) -> FrozenSet[str]:
    """Classes that define a truth method or inherit one from a class in ``table``."""
    falsy = {name for name, (own, _) in table.items() if own}
    while True:
        grown = {name for name, (_, bases) in table.items() if falsy.intersection(bases)}
        if grown <= falsy:
            return frozenset(falsy)
        falsy |= grown


@lru_cache(maxsize=1)
def _package_truth_table() -> Dict[str, Tuple[bool, Tuple[str, ...]]]:
    """The class table of every module under ``src/repro``, parsed once per process."""
    table: Dict[str, Tuple[bool, Tuple[str, ...]]] = {}
    for path in iter_python_files([_PACKAGE]):
        try:
            table.update(_class_truth_table(ast.parse(path.read_text(encoding="utf-8"))))
        except SyntaxError:
            continue  # the engine reports the file as a parse-error finding
    return table


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unquote(annotation: Optional[ast.AST]) -> Optional[ast.AST]:
    """The expression inside a string annotation (``"Optional[T]"``, ``Optional["T"]``)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


def _optional_target(annotation: Optional[ast.AST]) -> Optional[str]:
    """``T`` for an ``Optional[T]`` / ``Union[T, None]`` / ``T | None`` annotation."""
    annotation = _unquote(annotation)
    target = None
    if isinstance(annotation, ast.Subscript):
        wrapper = (dotted_name(annotation.value) or "").rsplit(".", 1)[-1]
        if wrapper == "Optional":
            target = annotation.slice
        elif wrapper == "Union" and isinstance(annotation.slice, ast.Tuple):
            members = annotation.slice.elts
            if len(members) == 2 and _is_none(members[1]):
                target = members[0]
    elif isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        if _is_none(annotation.right):
            target = annotation.left
    name = dotted_name(_unquote(target)) if target is not None else None
    return name.rsplit(".", 1)[-1] if name else None


@register
class FalsyDefaultRule(Rule):
    """``x or Factory()`` must not replace an empty (falsy) instance of ``x``'s class."""

    id = "falsy-default"
    summary = (
        "an Optional[T] parameter whose class T defines __len__/__bool__ must "
        "be defaulted with `is None`, not `x or T()`"
    )
    rationale = (
        "`routing_cache or RoutingAnalysisCache()` threw away the empty "
        "routing cache a sweep passed in to share across its points: an "
        "empty instance of a class with __len__ or __bool__ is falsy, so "
        "`or` treats it like None and builds a fresh one."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = dict(_package_truth_table())
        table.update(_class_truth_table(ctx.tree))
        falsy = _falsy_names(table)
        for function, _stack in walk_functions(ctx.tree):
            args = function.args
            optional = {
                arg.arg: _optional_target(arg.annotation)
                for arg in args.posonlyargs + args.args + args.kwonlyargs
            }
            for node in ast.walk(function):
                if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)):
                    continue
                first = node.values[0]
                if not isinstance(first, ast.Name):
                    continue
                target = optional.get(first.id)
                if target not in falsy:
                    continue
                if any(isinstance(value, ast.Call) for value in node.values[1:]):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{first.id!r} is Optional[{target}] and {target} defines "
                        f"__len__ or __bool__: `{first.id} or ...` replaces an empty "
                        f"{target} the caller passed; test `{first.id} is None` instead",
                    )
