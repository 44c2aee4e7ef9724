"""Spatial pooling layers (max and average).

Both layers pool by reducing over the ``k²`` shifted zero-copy strided slices
of the (padded) input rather than materializing an explicit window tensor —
for the small kernels used here this measures >2x faster than the windowed
formulation and allocates nothing beyond the output.  Max pooling pads with
``-inf`` so an all-negative window can never arg-max onto the padding (whose
gradient would be silently cropped away); average pooling keeps zero padding
(padded positions count toward the mean, matching the seed semantics).  The
outputs keep the input's memory layout: an NHWC conv output pools into an
NHWC buffer.

Max pooling records its arg-max map as a *miss count*: per window, the
number of leading offsets whose value is not the max.  A chained ``!=`` mask
stays set only while every offset so far has missed, and adds into an int16
counter, so the first offset holding the max ends the count — the lowest
offset wins ties, as ``argmax`` over explicit windows does, and ``±0.0``
compare equal.  A window that no offset matches holds a NaN (its max is NaN,
and NaN never compares equal); it keeps offset 0.

Backward scatters each window's gradient back with one strided add per
window offset.  When the windows are disjoint (``stride == pool_size`` and no
padding, as in every preset network) each input cell belongs to at most one
window, so the backward is a single write into a zeroed gradient instead: max
pooling writes every gradient to its arg-max cell with one flat indexed
write (the cell index is each window's corner, memoized per geometry, plus
the arg-max offset's delta), average pooling writes every share with one
broadcast write into the ``(N, C, out_h, k, out_w, k)`` view of the windowed
``[:out_h*k, :out_w*k]`` region.  Trailing rows and columns no window covers
(a 5x5 input under ``k = 2``) stay ``+0.0``, as the scatter leaves them.
Both write ``g + 0.0``, so a ``-0.0`` gradient (``ReLU`` backward makes them)
lands as ``+0.0``, exactly as the ``0.0 + g`` accumulation of the scatter
does: the two paths are bitwise identical.  Every path returns the gradient
in the memory layout of the forward input, so behind a convolution it is an
NHWC buffer and the convolution's ``grad_mat`` is a view, not a copy.

Backward context follows the cache lifecycle documented in
:mod:`repro.nn.layers.base`: max pooling caches only the compact arg-max
index map (``k²`` times smaller than the window tensor the seed
implementation retained), average pooling only the input geometry, both only
in training mode, and both release their caches at the end of ``backward``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float, default_dtype
from repro.nn.functional import channel_last, conv_output_size, pad_images
from repro.nn.layers.base import Layer
from repro.utils.validation import check_positive_int


def _memory_order(x: np.ndarray, nhwc: bool) -> np.ndarray:
    """An NCHW-shaped batch with its axes in memory order (NHWC for an NHWC buffer)."""
    return x.transpose(0, 2, 3, 1) if nhwc else x


@lru_cache(maxsize=16)
def _window_cells(
    input_shape: Tuple[int, int, int, int], pool_size: int, out_hw: Tuple[int, int], nhwc: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat buffer indices of the cells of disjoint pooling windows.

    Returns ``(corners, deltas)`` for an ``input_shape`` gradient stored
    NCHW or, with ``nhwc``, NHWC: ``corners`` holds each window's top-left
    cell with its axes in memory order, and ``deltas[t]`` the step from
    there to window entry ``t = i·k + j``.  Both are shared by every caller
    and so read-only.
    """
    n, c, h, w = input_shape
    k = pool_size
    out_h, out_w = out_hw
    images = np.arange(n)[:, None, None, None]
    rows = np.arange(0, out_h * k, k)
    cols = np.arange(0, out_w * k, k)
    channels = np.arange(c)
    if nhwc:
        corners = ((images * h + rows[:, None, None]) * w + cols[:, None]) * c + channels
        deltas = [(i * w + j) * c for i in range(k) for j in range(k)]
    else:
        corners = ((images * c + channels[:, None, None]) * h + rows[:, None]) * w + cols
        deltas = [i * w + j for i in range(k) for j in range(k)]
    corners = corners.astype(np.intp)
    deltas = np.array(deltas, dtype=np.intp)
    corners.flags.writeable = False
    deltas.flags.writeable = False
    return corners, deltas


class _Pool2D(Layer):
    """Shared geometry/bookkeeping for 2-D pooling layers."""

    _cache_attrs = ("_input_shape", "_out_hw", "_channel_last")

    def __init__(
        self,
        pool_size: int = 2,
        stride: Optional[int] = None,
        *,
        padding: int = 0,
        name: str = "",
    ):
        super().__init__(name=name or type(self).__name__.lower())
        self.pool_size = check_positive_int(pool_size, "pool_size")
        self.stride = check_positive_int(stride if stride is not None else pool_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        if padding >= self.pool_size:
            # With padding >= pool_size a border window can lie entirely in
            # the padding: its output would be a pure padding artifact (-inf
            # for max pooling) and its gradient would vanish.
            raise ValueError(
                f"padding must be < pool_size, got padding={padding} "
                f"with pool_size={self.pool_size}"
            )
        self.padding = int(padding)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None
        self._channel_last: Optional[bool] = None

    # ------------------------------------------------------------- geometry
    def _check_input(self, x: np.ndarray) -> Tuple[int, int]:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got shape {x.shape}")
        out_h = conv_output_size(x.shape[2], self.pool_size, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], self.pool_size, self.stride, self.padding)
        return out_h, out_w

    def _remember(self, x: np.ndarray, out_hw: Tuple[int, int]) -> None:
        """Cache the forward input's geometry and memory layout for backward."""
        self._input_shape = x.shape
        self._out_hw = out_hw
        self._channel_last = channel_last(x)

    def _offset_slices(self, out_h: int, out_w: int) -> Iterator[Tuple[slice, slice]]:
        """Spatial slices selecting window entry ``(i, j)`` across all windows."""
        for i in range(self.pool_size):
            row = slice(i, i + self.stride * out_h, self.stride)
            for j in range(self.pool_size):
                yield row, slice(j, j + self.stride * out_w, self.stride)

    def _check_grad(self, grad_output: np.ndarray) -> Tuple[int, int]:
        if self._input_shape is None or self._out_hw is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        n, c, _, _ = self._input_shape
        expected = (n, c) + self._out_hw
        if grad_output.shape != expected:
            raise ShapeError(
                f"{self.name}: expected grad_output of shape {expected}, "
                f"got {grad_output.shape}"
            )
        return self._out_hw

    def _windows_disjoint(self) -> bool:
        """Whether each input cell lies in at most one window."""
        return self.stride == self.pool_size and self.padding == 0

    def _zeros(self, padding: int = 0) -> np.ndarray:
        """A zeroed input gradient (grown by ``padding``), laid out like the forward input."""
        n, c, h, w = self._input_shape
        h, w = h + 2 * padding, w + 2 * padding
        if self._channel_last:
            return np.zeros((n, h, w, c), dtype=default_dtype()).transpose(0, 3, 1, 2)
        return np.zeros((n, c, h, w), dtype=default_dtype())

    def _scatter(self, contributions) -> np.ndarray:
        """Sum per-offset gradient contributions into the input and crop padding.

        ``contributions`` maps each kernel offset's spatial slices to a
        ``(N, C, out_h, out_w)``-broadcastable gradient term; each add is one
        vectorized strided operation.
        """
        grad_padded = self._zeros(self.padding)
        for (rows, cols), term in contributions:
            grad_padded[:, :, rows, cols] += term
        if self.padding == 0:
            return grad_padded
        return grad_padded[:, :, self.padding:-self.padding, self.padding:-self.padding]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(
                f"{self.name}: expected per-sample input shape (C, H, W), got {input_shape}"
            )
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.pool_size, self.stride, self.padding)
        return (c, out_h, out_w)


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping or strided windows."""

    _cache_attrs = _Pool2D._cache_attrs + ("_argmax",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        out_h, out_w = self._check_input(x)
        # -inf padding: a padded position can never be the window maximum, so
        # gradients always route to a real input entry.
        x_padded = pad_images(x, self.padding, value=-np.inf)
        slabs = [x_padded[:, :, rows, cols] for rows, cols in self._offset_slices(out_h, out_w)]
        # Chained in-place maximum: same left-fold as ``np.maximum.reduce``
        # (max is exact, so bitwise identical) without materializing the
        # (k², N, C, out_h, out_w) stack the reduce would build.
        out = np.maximum(slabs[0], slabs[1]) if len(slabs) > 1 else slabs[0].copy()
        for slab in slabs[2:]:
            np.maximum(out, slab, out=out)
        if self.training:
            # Miss count (see the module docstring): ``miss`` stays set while
            # every offset so far has missed the max.
            miss = slabs[0] != out
            argmax = miss.astype(np.int16)
            for slab in slabs[1:-1]:
                miss &= slab != out
                argmax += miss
            # Missing the last offset too means a NaN window: offset 0.
            miss &= slabs[-1] != out
            argmax[miss] = 0
            self._remember(x, (out_h, out_w))
            self._argmax = argmax
        else:
            self.release_caches()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        out_h, out_w = self._check_grad(grad_output)
        argmax = self._argmax
        if self._windows_disjoint():
            nhwc = self._channel_last
            corners, deltas = _window_cells(self._input_shape, self.pool_size, self._out_hw, nhwc)
            # Flat index of each window's arg-max cell in the gradient
            # buffer, built and written in the buffer's memory order.
            cells = deltas.take(_memory_order(argmax, nhwc))
            cells += corners
            grad_input = self._zeros()
            buffer = _memory_order(grad_input, nhwc).reshape(-1)
            buffer[cells] = _memory_order(grad_output, nhwc) + 0.0
        else:
            grad_input = self._scatter(
                (spatial, np.where(argmax == t, grad_output, 0.0))
                for t, spatial in enumerate(self._offset_slices(out_h, out_w))
            )
        self.release_caches()
        return grad_input


class AvgPool2D(_Pool2D):
    """Average pooling over non-overlapping or strided windows."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        out_h, out_w = self._check_input(x)
        x_padded = pad_images(x, self.padding)
        acc: Optional[np.ndarray] = None
        for rows, cols in self._offset_slices(out_h, out_w):
            slab = x_padded[:, :, rows, cols]
            acc = slab.copy(order="K") if acc is None else np.add(acc, slab, out=acc)
        out = acc / (self.pool_size * self.pool_size)
        if self.training:
            self._remember(x, (out_h, out_w))
        else:
            self.release_caches()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        out_h, out_w = self._check_grad(grad_output)
        share = grad_output / (self.pool_size * self.pool_size)
        if self._windows_disjoint():
            n, c, _, _ = self._input_shape
            k = self.pool_size
            grad_input = self._zeros()
            # Splitting the region's two spatial axes is always a view.
            windows = grad_input[:, :, : out_h * k, : out_w * k].reshape(n, c, out_h, k, out_w, k)
            np.add(share[:, :, :, None, :, None], 0.0, out=windows)
        else:
            grad_input = self._scatter(
                (spatial, share) for spatial in self._offset_slices(out_h, out_w)
            )
        self.release_caches()
        return grad_input
