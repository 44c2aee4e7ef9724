"""Traced pass: one spec run in-process through ``execute_spec``, with spans.

usage: python3 perfbench/traced.py SPEC_JSON STORE_DIR OUT_JSON

``run.py`` starts this as a fresh child with ``src`` on ``PYTHONPATH``.  It
wraps the public functions and methods of each layer where their callers
look them up (class attributes, and every ``repro`` module attribute bound to
a wrapped module function), runs the spec against an empty store, and writes
every span once, at the end, to OUT_JSON.  Nothing under ``src/`` changes.

A span is ``[name id, start ns, end ns, parent index, value]``: times are
``time.monotonic_ns()`` (CLOCK_MONOTONIC, the clock ``run.py`` stamps child
launches with), ``parent`` is the index of the enclosing span or -1, and
``value`` is the one quantity the span counts, if any (bytes an im2col
copies, GEMM FLOPs at a conv/linear boundary, tile MVMs, programmed cells,
routing-cache hits).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time


#: Spans opened inside a simulator span are renamed into the simulator's
#: scope (``sim.functional.im2col``), so simulated inference and training
#: never share a layer or kernel total.
SIM_SCOPE = "sim."


class Tracer:
    """In-memory span recorder; single-threaded, as the serial engine is."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []
        self.stack = []
        self.sim_depth = 0

    def open(self, name: str) -> int:
        if self.sim_depth and not name.startswith(SIM_SCOPE):
            name = SIM_SCOPE + name
        if name.startswith(SIM_SCOPE):
            self.sim_depth += 1
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, time.monotonic_ns(), 0, parent, 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.monotonic_ns()
        self.stack.pop()
        if self.names[span[0]].startswith(SIM_SCOPE):
            self.sim_depth -= 1

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` under a span; ``after(token, args, result)`` gives its value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                tracer.spans[index][4] = after(token, args, result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        """A generator method whose every ``next`` runs under a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return traced


# ----------------------------------------------------------- span values
def _gemm_flops(passes):
    """GEMM FLOPs at a conv/linear boundary, from shapes: 2·M·K·N per GEMM.

    ``passes`` is 2 for forward (one GEMM per weight factor) and 4 for
    backward (weight and input gradients).  M is the output rows: batch, or
    batch·out_h·out_w for a convolution.
    """

    def value(_token, args, result):
        layer = args[0]
        shape = (result if passes == 2 else args[1]).shape
        rows = shape[0] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
        if hasattr(layer, "out_channels"):
            fan_in, fan_out = layer.fan_in, layer.out_channels
        else:
            fan_in, fan_out = layer.in_features, layer.out_features
        factor = getattr(layer, "v", None)
        if factor is None:
            return passes * rows * fan_in * fan_out
        return passes * rows * factor.data.shape[1] * (fan_in + fan_out)

    return value


def _cache_hits_before(args):
    return args[0].hits


def _cache_hit(token, args, _result):
    return args[0].hits - token


#: Layers whose forward and backward run GEMMs (their spans count FLOPs).
_GEMM_LAYERS = ("Conv2D", "LowRankConv2D", "Linear", "LowRankLinear")
_LAYER_CLASSES = (
    ("repro.nn.layers", "Conv2D"),
    ("repro.nn.layers", "LowRankConv2D"),
    ("repro.nn.layers", "MaxPool2D"),
    ("repro.nn.layers", "AvgPool2D"),
    ("repro.nn.layers", "Linear"),
    ("repro.nn.layers", "LowRankLinear"),
    ("repro.nn.layers", "ReLU"),
    ("repro.nn.losses", "SoftmaxCrossEntropy"),
)
#: ``(module, class or None, attributes, span name)``.  Module functions are
#: replaced in every loaded ``repro`` module that binds them, so ``from x
#: import f`` callers are traced too.
PROBES = [
    ("repro.experiments.store", "RunStore", ("append_journal",), "store.journal"),
    ("repro.experiments.store", "RunStore", ("save", "update"), "store.save"),
    (
        "repro.experiments.store",
        "RunStore",
        ("load", "lookup_points", "lookup_baseline", "load_journal"),
        "store.read",
    ),
    ("repro.experiments.workloads", "Workload", ("data",), "data.make"),
    ("repro.nn.trainer", "Trainer", ("train_step",), "trainer.step"),
    ("repro.nn.trainer", "LockstepTrainer", ("train_step",), "trainer.step"),
    ("repro.nn.trainer", "Trainer", ("evaluate",), "trainer.eval"),
    ("repro.nn.trainer", "LockstepTrainer", ("evaluate",), "trainer.eval"),
    ("repro.experiments.training", "TrainingSetup", ("evaluate",), "trainer.eval"),
    ("repro.experiments.runner", "SweepEngine", ("evaluate_networks",), "trainer.eval"),
    ("repro.nn.network", "Sequential", ("forward",), "network.forward"),
    ("repro.nn.network", "Sequential", ("backward",), "network.backward"),
    ("repro.nn.batched", "NetworkStack", ("forward",), "stack.forward"),
    ("repro.nn.batched", "NetworkStack", ("backward",), "stack.backward"),
    ("repro.nn.functional", None, ("col2im",), "functional.col2im"),
    ("repro.nn.functional", None, ("conv_backward_input",), "functional.conv_backward_input"),
    ("repro.nn.optim.base", "Optimizer", ("step",), "optim.step"),
    ("repro.nn.optim.lockstep", "LockstepSGD", ("step",), "optim.step"),
    ("repro.core.groups", "CrossbarGroupLasso", ("penalty", "apply_gradients"), "core.group_lasso"),
    (
        "repro.core.groups",
        "LockstepCrossbarGroupLasso",
        ("penalties", "apply_gradients"),
        "core.group_lasso",
    ),
    (
        "repro.nn.regularization",
        "GroupLassoRegularizer",
        ("penalty", "apply_gradients"),
        "core.group_lasso",
    ),
    ("repro.core.group_deletion", None, ("apply_deletion",), "core.deletion"),
    (
        "repro.core.group_deletion",
        "GroupDeletionCallback",
        ("on_train_begin", "on_iteration_end"),
        "core.deletion",
    ),
    (
        "repro.core.rank_clipping",
        "RankClippingCallback",
        ("on_train_begin", "on_iteration_end"),
        "core.clip",
    ),
    ("repro.hardware.routing", None, ("analyze_routing",), "routing"),
    (
        "repro.hardware.mapper",
        "NetworkMapper",
        ("plan_matrix", "plan_network", "map_network", "crossbar_area", "area_fraction"),
        "mapper",
    ),
    ("repro.hardware.sim", None, ("simulate_evaluate",), "sim.evaluate"),
]


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _patch(tracer, module_name, class_name, attr, name, after=None, before=None):
    module = importlib.import_module(module_name)
    if class_name is None:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, before, after))
        return
    owner = getattr(module, class_name)
    original = getattr(owner, attr)
    setattr(owner, attr, tracer.wrap(name, original, before, after))


def instrument(tracer: Tracer) -> None:
    """Install every probe (call once, after ``repro`` is imported)."""
    for module_name, class_name, attrs, name in PROBES:
        for attr in attrs:
            _patch(tracer, module_name, class_name, attr, name)
    for module_name, class_name in _LAYER_CLASSES:
        for attr, passes in (("forward", 2), ("backward", 4)):
            _patch(
                tracer,
                module_name,
                class_name,
                attr,
                f"layers.{class_name}.{attr}",
                after=_gemm_flops(passes) if class_name in _GEMM_LAYERS else None,
            )
    _patch(
        tracer,
        "repro.nn.functional",
        None,
        "im2col",
        "functional.im2col",
        after=lambda _token, _args, result: result[0].nbytes,
    )
    _patch(
        tracer,
        "repro.hardware.routing",
        "RoutingAnalysisCache",
        "analyze",
        "routing",
        after=_cache_hit,
        before=_cache_hits_before,
    )
    _patch(
        tracer,
        "repro.hardware.sim",
        None,
        "program_matrix",
        "sim.program",
        after=lambda _token, _args, result: result.num_cells,
    )
    _patch(
        tracer,
        "repro.hardware.sim",
        None,
        "simulate_mvm",
        "sim.mvm",
        after=lambda _token, args, _result: args[0].shape[0] * args[1].plan.num_crossbars,
    )
    loaders = importlib.import_module("repro.data.loaders")
    loaders.DataLoader.__iter__ = tracer.wrap_iter("data.batch", loaders.DataLoader.__iter__)


def main(argv) -> int:
    spec_path, store_dir, out_path = argv[1:4]
    tracer = Tracer()
    index = tracer.open("startup.import")
    import repro.experiments  # noqa: F401  (loads every layer the probes name)
    from repro.experiments.plan import execute_spec
    from repro.experiments.spec import ExperimentSpec
    from repro.experiments.store import RunStore
    from repro.utils.serialization import jsonify

    tracer.close(index)
    instrument(tracer)
    with open(spec_path, encoding="utf-8") as handle:
        spec = ExperimentSpec.from_dict(json.load(handle))
    started = time.monotonic_ns()
    run = execute_spec(spec, store=RunStore(store_dir))
    finished = time.monotonic_ns()
    payload = json.dumps(jsonify(run.payload), sort_keys=True, separators=(",", ":"))
    record = {
        "started_ns": started,
        "finished_ns": finished,
        "fingerprint": run.fingerprint,
        "computed_points": run.computed_points,
        "failed_points": len(run.failures),
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "names": tracer.names,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
