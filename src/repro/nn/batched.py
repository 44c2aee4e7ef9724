"""Lockstep training of K same-architecture networks.

Hyper-parameter sweeps produce K networks of identical architecture trained
on the *same* data stream.  :class:`NetworkStack` trains them together: the K
networks' parameters are gathered into ``(K, …)`` :class:`StackedParameter`
slabs and every per-point ``Parameter.data``/``grad`` is re-bound to a
zero-copy view of its slab row, so per-point code (regularizers, callbacks,
routing analyses) reads and writes the live slab with no synchronization
step.  The stack compiles a stacked forward *and* backward program — im2col
extracted once per mini-batch when the points share a data stream, one
``(K, out, in)`` batched matmul per weighted layer, parameter-free layers
riding the ``(K·N, …)`` super-batch — whose per-point results are
bit-identical to K independent ``forward``/``backward`` passes.  The
:class:`~repro.nn.trainer.LockstepTrainer` drives the stack;
:class:`~repro.nn.optim.lockstep.LockstepSGD` updates the slabs in place so
the per-point views stay valid.

:func:`architecture_signature` is the stacking check: only networks with
equal signatures share one stack, and the stack is fixed for its lifetime.
Inference is not stacked — finished networks are evaluated one ``predict``
at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import LayerError, ShapeError
from repro.nn import functional as F
from repro.nn.dtype import as_float
from repro.nn.layers import Conv2D, Dropout, Linear, LowRankConv2D, LowRankLinear
from repro.nn.network import Sequential
from repro.nn.parameter import Parameter

_WEIGHTED = (Linear, LowRankLinear, Conv2D, LowRankConv2D)


#: Layer attributes that change a layer's math and must therefore agree for
#: two networks to share one stacked program.  (``Dropout.rate`` is absent on
#: purpose: :class:`NetworkStack` rejects active dropout outright.)
_CONFIG_ATTRS = ("kernel_size", "stride", "padding", "pool_size", "negative_slope")


def architecture_signature(network: Sequential) -> Tuple:
    """Stacking key: layer types, configuration and parameter shapes, in order.

    Two networks with equal signatures can train as one :class:`NetworkStack`;
    differing ranks, channel counts or layer configuration (pool geometry,
    activation slopes, …) yield different signatures.
    """
    parts = []
    for layer in network:
        entry: Tuple = (type(layer).__name__,)
        config = tuple(
            (attr, getattr(layer, attr))
            for attr in _CONFIG_ATTRS
            if hasattr(layer, attr)
        )
        if isinstance(layer, _WEIGHTED):
            shapes = tuple(
                (name, param.data.shape) for name, param in sorted(layer.parameters().items())
            )
            entry += (shapes, config)
        elif config:
            entry += (config,)
        parts.append(entry)
    return tuple(parts)


# --------------------------------------------------------------------------
# Training-mode stacking: (K, ...) parameter slabs + stacked forward/backward
# --------------------------------------------------------------------------
class StackedParameter:
    """One parameter of K aligned networks as a ``(K, *shape)`` slab.

    The slab is the authoritative storage while a :class:`NetworkStack` is
    live: every point's ``Parameter.data`` and ``Parameter.grad`` is re-bound
    to a zero-copy view of the corresponding slab row, so any per-point code
    that reads or accumulates through the ``Parameter`` object operates on
    the slab directly.  All slab updates must therefore be **in place**
    (``out=``/augmented assignment) — re-binding ``self.data`` would orphan
    the per-point views.

    The slab is fixed for its lifetime: a point whose ``Parameter`` gets
    re-bound externally with the same shape (mask installation re-binds
    ``data``) is detected by :meth:`point_status` and re-absorbed by
    :meth:`refresh_point`; a new shape (rank clipping) reads ``"diverged"``,
    which the :class:`~repro.nn.trainer.LockstepTrainer` refuses.
    """

    def __init__(self, parameters: Sequence[Parameter], name: str = ""):
        params = list(parameters)
        if not params:
            raise LayerError("StackedParameter needs at least one parameter")
        shapes = {p.data.shape for p in params}
        if len(shapes) != 1:
            raise ShapeError(
                f"cannot stack parameters with differing shapes: {sorted(shapes)}"
            )
        if len({p.trainable for p in params}) != 1:
            raise LayerError("cannot stack parameters with differing trainable flags")
        self.points: List[Parameter] = params
        self.name = name or params[0].name
        self.trainable = params[0].trainable
        self.data = np.stack([p.data for p in params])
        self.grad = np.stack([p.grad for p in params])
        self.mask: Optional[np.ndarray] = None
        if any(p.mask is not None for p in params):
            self.mask = np.stack(
                [
                    p.mask if p.mask is not None else np.ones(p.data.shape, dtype=bool)
                    for p in params
                ]
            )
        self._views: List[Tuple[np.ndarray, np.ndarray]] = []
        self._mask_refs: List[Optional[np.ndarray]] = []
        for k, param in enumerate(self.points):
            data_view = self.data[k]
            grad_view = self.grad[k]
            param.data = data_view
            param.grad = grad_view
            self._views.append((data_view, grad_view))
            self._mask_refs.append(param.mask)

    # ----------------------------------------------------------- geometry
    @property
    def num_points(self) -> int:
        """Number of stacked points (the slab's leading dimension)."""
        return self.data.shape[0]

    @property
    def shape(self) -> Tuple[int, ...]:
        """Per-point parameter shape (without the stacking axis)."""
        return self.data.shape[1:]

    # ------------------------------------------------------------ aliasing
    def point_status(self, k: int) -> str:
        """``"intact"``, ``"rebound"`` (same shape) or ``"diverged"`` (new shape)."""
        param = self.points[k]
        data_view, grad_view = self._views[k]
        if (
            param.data is data_view
            and param.grad is grad_view
            and param.mask is self._mask_refs[k]
        ):
            return "intact"
        if param.data.shape == self.shape:
            return "rebound"
        return "diverged"

    def refresh_point(self, k: int) -> None:
        """Re-absorb a point whose ``Parameter`` was re-bound with the same shape."""
        param = self.points[k]
        self.data[k] = param.data
        if param.grad.shape == self.shape:
            self.grad[k] = param.grad
        if param.mask is not None and self.mask is None:
            self.mask = np.ones(self.data.shape, dtype=bool)
        if self.mask is not None:
            self.mask[k] = True if param.mask is None else param.mask
        data_view = self.data[k]
        grad_view = self.grad[k]
        param.data = data_view
        param.grad = grad_view
        self._views[k] = (data_view, grad_view)
        self._mask_refs[k] = param.mask

    def release_point(self, k: int) -> None:
        """Give point ``k``'s ``Parameter`` its own arrays (undo the aliasing)."""
        param = self.points[k]
        data_view, grad_view = self._views[k]
        if param.data is data_view:
            param.data = self.data[k].copy()
        if param.grad is grad_view:
            param.grad = self.grad[k].copy()

    def detach_all(self) -> None:
        """Release every point (used when lockstep training finishes)."""
        for k in range(len(self.points)):
            self.release_point(k)

    # ------------------------------------------------------------- updates
    def zero_grad(self) -> None:
        """Zero the gradient slab in place (the per-point views stay valid)."""
        self.grad[...] = 0.0

    def apply_mask(self) -> None:
        """Re-apply the stacked pruning mask to data and grad (no-op when unmasked).

        Unmasked points carry all-``True`` rows; multiplying by ``True`` is an
        exact identity, so the slab-wide multiply is bit-identical to the
        per-point ``Parameter.apply_mask`` (which skips unmasked parameters).
        """
        if self.mask is not None:
            self.data *= self.mask
            self.grad *= self.mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StackedParameter(name={self.name!r}, points={self.num_points}, shape={self.shape})"


class _TrainStep:
    """One compiled layer of the stacked training program."""

    __slots__ = (
        "kind",
        "layer",
        "weight",
        "bias",
        "u",
        "v",
        "x_shared",
        "x3",
        "mid3",
        "cols_shared",
        "cols3",
        "rows",
        "point_input_shape",
        "out_hw",
    )

    def __init__(self, kind: str, layer, *, weight=None, bias=None, u=None, v=None):
        self.kind = kind
        self.layer = layer
        self.weight = weight
        self.bias = bias
        self.u = u
        self.v = v
        self.release()

    def release(self) -> None:
        """Drop the per-iteration backward context."""
        self.x_shared = None
        self.x3 = None
        self.mid3 = None
        self.cols_shared = None
        self.cols3 = None
        self.rows = None
        self.point_input_shape = None
        self.out_hw = None

    def stacked_parameters(self) -> List[StackedParameter]:
        return [sp for sp in (self.weight, self.u, self.v, self.bias) if sp is not None]


class NetworkStack:
    """K same-architecture networks stacked for lockstep training.

    Gathers every parameter into a :class:`StackedParameter` slab (re-binding
    the per-point ``Parameter`` objects to slab views) and compiles a stacked
    forward/backward program over the shared architecture.  The program is
    bit-identical, per point, to K independent ``Sequential`` forward/backward
    passes: weighted layers run one batched matmul against the ``(K, …)``
    slabs with exactly the per-network operand strides, parameter-free layers
    process the ``(K·N, …)`` super-batch (their math is per-sample), and the
    backward pass stops at the first weighted layer (whose input gradient no
    parameter consumes).

    Layers with stochastic training behaviour (``Dropout`` with a positive
    rate) cannot be stacked — each serial network would consume its own
    random stream — and raise :class:`~repro.exceptions.LayerError`; such
    points belong on the serial path.
    """

    def __init__(self, networks: Sequence[Sequential]):
        nets = list(networks)
        if not nets:
            raise LayerError("NetworkStack needs at least one network")
        signatures = {architecture_signature(network) for network in nets}
        if len(signatures) != 1:
            raise LayerError(
                "lockstep stacking requires identical architectures; "
                "group networks by architecture_signature first"
            )
        for network in nets:
            for layer in network:
                if isinstance(layer, Dropout) and layer.rate > 0.0:
                    raise LayerError(
                        "lockstep training cannot stack active Dropout layers "
                        "(each network consumes its own noise stream); "
                        "train such points serially"
                    )
        self.networks = nets
        self._steps: List[_TrainStep] = []
        self.parameters: List[StackedParameter] = []
        self._compile()
        self.first_weighted: Optional[int] = next(
            (i for i, step in enumerate(self._steps) if step.kind != "layer"), None
        )
        self._param_index: Dict[int, Tuple[StackedParameter, int]] = {
            id(param): (sp, k)
            for sp in self.parameters
            for k, param in enumerate(sp.points)
        }

    # ------------------------------------------------------------- compile
    def _stack_param(self, position: int, key: str) -> StackedParameter:
        params = [network[position].parameters()[key] for network in self.networks]
        sp = StackedParameter(params, name=params[0].name)
        self.parameters.append(sp)
        return sp

    def _maybe_bias(self, position: int) -> Optional[StackedParameter]:
        layer0 = self.networks[0][position]
        if getattr(layer0, "bias", None) is None:
            return None
        return self._stack_param(position, "bias")

    def _compile(self) -> None:
        for position, layer0 in enumerate(self.networks[0]):
            if isinstance(layer0, LowRankConv2D):
                step = _TrainStep(
                    "lowrank_conv",
                    layer0,
                    u=self._stack_param(position, "u"),
                    v=self._stack_param(position, "v"),
                    bias=self._maybe_bias(position),
                )
            elif isinstance(layer0, LowRankLinear):
                step = _TrainStep(
                    "lowrank_dense",
                    layer0,
                    u=self._stack_param(position, "u"),
                    v=self._stack_param(position, "v"),
                    bias=self._maybe_bias(position),
                )
            elif isinstance(layer0, Conv2D):
                step = _TrainStep(
                    "conv",
                    layer0,
                    weight=self._stack_param(position, "weight"),
                    bias=self._maybe_bias(position),
                )
            elif isinstance(layer0, Linear):
                step = _TrainStep(
                    "dense",
                    layer0,
                    weight=self._stack_param(position, "weight"),
                    bias=self._maybe_bias(position),
                )
            elif layer0.parameters():
                raise LayerError(
                    f"cannot stack layer {layer0.name!r} of type "
                    f"{type(layer0).__name__}: it carries parameters the "
                    "lockstep program does not know how to train"
                )
            else:
                step = _TrainStep("layer", layer0)
            self._steps.append(step)

    # ------------------------------------------------------------ plumbing
    @property
    def num_points(self) -> int:
        """Number of stacked networks."""
        return len(self.networks)

    def slab_pair(self, param: Parameter) -> Tuple[StackedParameter, int]:
        """The ``(slab, point index)`` a per-point ``Parameter`` belongs to."""
        try:
            return self._param_index[id(param)]
        except KeyError:
            raise LayerError(
                f"parameter {param.name!r} is not part of this NetworkStack"
            ) from None

    def zero_grad(self) -> None:
        """Zero every gradient slab in place."""
        for sp in self.parameters:
            sp.zero_grad()

    def train(self) -> None:
        """Put every stacked network in training mode."""
        for network in self.networks:
            network.train()

    def scan_point(self, k: int) -> str:
        """Aggregate :meth:`StackedParameter.point_status` over all slabs."""
        status = "intact"
        for sp in self.parameters:
            point = sp.point_status(k)
            if point == "diverged":
                return "diverged"
            if point == "rebound":
                status = "rebound"
        return status

    def refresh_point(self, k: int) -> None:
        """Re-absorb point ``k`` after a same-shape re-bind (e.g. masks)."""
        for sp in self.parameters:
            sp.refresh_point(k)

    def detach_all(self) -> None:
        """Release every network's parameters (end of lockstep training)."""
        for sp in self.parameters:
            sp.detach_all()

    # -------------------------------------------------------------- forward
    def forward(self, inputs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
        """Stacked training forward pass; returns ``(K, N, classes)`` logits.

        ``inputs`` is a single batch shared by every point (shared data
        stream: im2col and the pre-weighted prefix run once) or a sequence of
        K per-point batches of identical shape (independent streams: the
        super-batch is stacked from the start).
        """
        k = self.num_points
        if isinstance(inputs, np.ndarray):
            value = as_float(inputs)
            shared = True
            rows = value.shape[0]
        else:
            batches = [as_float(batch) for batch in inputs]
            if len(batches) != k:
                raise ShapeError(
                    f"expected {k} per-point batches, got {len(batches)}"
                )
            if len({batch.shape for batch in batches}) != 1:
                raise ShapeError("per-point batches must share one shape")
            value = np.concatenate(batches, axis=0)
            shared = False
            rows = batches[0].shape[0]
        for step in self._steps:
            if step.kind == "layer":
                value = step.layer.forward(value)
            elif step.kind in ("conv", "lowrank_conv"):
                value, shared = self._forward_conv(step, value, shared)
            else:
                value, shared = self._forward_dense(step, value, shared)
        if shared:
            # Degenerate: no weighted layer at all; every point agrees.
            value = np.repeat(value[None], k, axis=0).reshape(k * rows, *value.shape[1:])
        logits = value.reshape(k, rows, *value.shape[1:])
        if logits.ndim != 3:
            raise ShapeError(
                f"stacked training forward expected (K, N, classes) logits, "
                f"got shape {logits.shape}"
            )
        return logits

    def _forward_dense(self, step: _TrainStep, value, shared):
        k = self.num_points
        lowrank = step.kind == "lowrank_dense"
        if shared:
            x_ref = value
            step.x_shared = value
            step.x3 = None
        else:
            rows = value.shape[0] // k
            x_ref = value.reshape(k, rows, value.shape[1])
            step.x_shared = None
            step.x3 = x_ref
        if lowrank:
            mid3 = np.matmul(x_ref, step.v.data)  # (K, rows, rank)
            step.mid3 = mid3
            out3 = np.matmul(mid3, step.u.data.transpose(0, 2, 1))
        else:
            out3 = np.matmul(x_ref, step.weight.data.transpose(0, 2, 1))
        if step.bias is not None:
            out3 += step.bias.data[:, None, :]
        step.rows = out3.shape[1]
        return out3.reshape(k * out3.shape[1], out3.shape[2]), False

    def _forward_conv(self, step: _TrainStep, value, shared):
        k = self.num_points
        layer = step.layer
        lowrank = step.kind == "lowrank_conv"
        n = value.shape[0] if shared else value.shape[0] // k
        cols, out_h, out_w = F.im2col(
            value, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding
        )
        rows = n * out_h * out_w
        if shared:
            cols_ref = cols
            step.cols_shared = cols
            step.cols3 = None
        else:
            cols_ref = cols.reshape(k, rows, cols.shape[1])
            step.cols_shared = None
            step.cols3 = cols_ref
        if lowrank:
            mid3 = np.matmul(cols_ref, step.v.data)  # (K, rows, rank)
            step.mid3 = mid3
            out3 = np.matmul(mid3, step.u.data.transpose(0, 2, 1))
        else:
            weight_matrix = step.weight.data.reshape(k, layer.out_channels, layer.fan_in)
            out3 = np.matmul(cols_ref, weight_matrix.transpose(0, 2, 1))
        if step.bias is not None:
            F.add_conv_bias(out3, step.bias.data, out_h * out_w)
        step.rows = rows
        step.point_input_shape = (n,) + value.shape[1:]
        step.out_hw = (out_h, out_w)
        value = out3.reshape(k * n, out_h, out_w, layer.out_channels).transpose(
            0, 3, 1, 2
        )
        return value, False

    # ------------------------------------------------------------- backward
    def backward(self, grad_logits: np.ndarray) -> None:
        """Stacked backward pass accumulating into the gradient slabs.

        ``grad_logits`` is the ``(K·N, classes)`` super-batch of per-point
        loss gradients (point-major).  The pass stops at the first weighted
        layer: its input gradient — and the backward of any parameter-free
        prefix — feeds no parameter, so skipping it leaves every weight
        gradient bit-identical to the serial computation while saving the
        most expensive ``col2im`` scatter of the network.
        """
        if self.first_weighted is None:
            return
        grad = grad_logits
        for index in range(len(self._steps) - 1, self.first_weighted - 1, -1):
            step = self._steps[index]
            need_input = index != self.first_weighted
            if step.kind == "layer":
                grad = step.layer.backward(grad)
            elif step.kind in ("conv", "lowrank_conv"):
                grad = self._backward_conv(step, grad, need_input)
            else:
                grad = self._backward_dense(step, grad, need_input)
        # The skipped prefix never consumes its forward caches; drop them.
        for index in range(self.first_weighted):
            if self._steps[index].kind == "layer":
                self._steps[index].layer.release_caches()

    def _backward_dense(self, step: _TrainStep, grad, need_input):
        k = self.num_points
        g3 = grad.reshape(k, step.rows, grad.shape[1])
        x_ref = step.x_shared if step.x3 is None else step.x3
        if step.kind == "lowrank_dense":
            step.u.grad += np.matmul(g3.transpose(0, 2, 1), step.mid3)
            gmid3 = np.matmul(g3, step.u.data)
            if step.x3 is None:
                step.v.grad += np.matmul(x_ref.T, gmid3)
            else:
                step.v.grad += np.matmul(x_ref.transpose(0, 2, 1), gmid3)
            grad_in3 = (
                np.matmul(gmid3, step.v.data.transpose(0, 2, 1)) if need_input else None
            )
        else:
            # Shared x broadcasts against the K gradient slices.
            step.weight.grad += np.matmul(g3.transpose(0, 2, 1), x_ref)
            grad_in3 = np.matmul(g3, step.weight.data) if need_input else None
        if step.bias is not None:
            # Sequential row adds over the C-contiguous slab, the same bytes
            # as g3.sum(axis=1) (see Conv2D.backward).
            step.bias.grad += np.einsum("kmc->kc", g3)
        step.release()
        if grad_in3 is None:
            return None
        return grad_in3.reshape(k * grad_in3.shape[1], grad_in3.shape[2])

    def _backward_conv(self, step: _TrainStep, grad, need_input):
        k = self.num_points
        layer = step.layer
        n, c, h, w = step.point_input_shape
        out_h, out_w = step.out_hw
        expected = (k * n, layer.out_channels, out_h, out_w)
        if grad.shape != expected:
            raise ShapeError(
                f"{layer.name}: expected stacked grad of shape {expected}, "
                f"got {grad.shape}"
            )
        # Every layer above hands back an NHWC gradient buffer (pooling
        # allocates like its forward input, conv input gradients accumulate
        # channel-last), so grad_mat is a C-contiguous view, not a copy.
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
        gm3 = grad_mat.reshape(k, step.rows, layer.out_channels)
        cols_ref = step.cols_shared if step.cols3 is None else step.cols3
        cols_t = cols_ref.T if step.cols3 is None else step.cols3.transpose(0, 2, 1)
        if step.kind == "lowrank_conv":
            step.u.grad += np.matmul(gm3.transpose(0, 2, 1), step.mid3)
            gmid3 = np.matmul(gm3, step.u.data)
            step.v.grad += np.matmul(cols_t, gmid3)
        else:
            gw3 = np.matmul(gm3.transpose(0, 2, 1), cols_ref)  # (K, out, fan)
            step.weight.grad += gw3.reshape(step.weight.data.shape)
        if step.bias is not None:
            step.bias.grad += np.einsum("kmc->kc", gm3)  # == gm3.sum(axis=1)
        grad_input = None
        if need_input:
            kernel = layer.kernel_size
            if step.kind == "lowrank_conv":
                back_mats = gmid3
                weight_stack = step.v.data.transpose(0, 2, 1)  # (K, rank, fan)
            else:
                back_mats = gm3
                weight_stack = step.weight.data.reshape(
                    k, layer.out_channels, layer.fan_in
                )
            if layer.stride >= kernel or c < F.FUSED_BACKWARD_MIN_CHANNELS:
                # The serial kernel would take the unfused path
                # (col2im(grad_mat @ W)); its col2im scatter is per-sample, so
                # all K points fold in one stacked matmul + one super-batch
                # col2im, bit-identical per point slice.
                grad_cols = np.matmul(back_mats, weight_stack)
                grad_input = F.col2im(
                    grad_cols.reshape(k * step.rows, grad_cols.shape[2]),
                    (k * n, c, h, w),
                    kernel,
                    kernel,
                    layer.stride,
                    layer.padding,
                )
            else:
                # The fused per-offset path multiplies each point's own weight
                # slices; replicate it per point with identical operands.
                # Each result is a channel-last view, so the points fill one
                # (K·N, H, W, C) buffer with row copies, and the layers
                # below get an NHWC gradient, as serial backward gives them.
                grad_nhwc = np.empty((k * n, h, w, c), dtype=grad_mat.dtype)
                for slot in range(k):
                    grad_nhwc[slot * n : (slot + 1) * n] = F.conv_backward_input(
                        back_mats[slot],
                        weight_stack[slot],
                        (n, c, h, w),
                        kernel,
                        kernel,
                        layer.stride,
                        layer.padding,
                    ).transpose(0, 2, 3, 1)
                grad_input = grad_nhwc.transpose(0, 3, 1, 2)
        step.release()
        return grad_input
