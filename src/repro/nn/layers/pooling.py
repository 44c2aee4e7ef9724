"""Spatial pooling layers (max and average).

Both layers pool by reducing over the ``k²`` shifted zero-copy strided slices
of the (padded) input rather than materializing an explicit window tensor —
for the small kernels used here this measures >2x faster than the windowed
formulation and allocates nothing beyond the output.  Max pooling pads with
``-inf`` so an all-negative window can never arg-max onto the padding (whose
gradient would be silently cropped away); average pooling keeps zero padding
(padded positions count toward the mean, matching the seed semantics).

Backward scatters each window's gradient back with one strided add per
window offset.  When the windows are disjoint (``stride == pool_size`` and no
padding, as in every preset network) each input cell belongs to at most one
window, so the backward is a single write into a zeroed gradient instead: max
pooling writes every gradient to its arg-max cell with one flat indexed
write, average pooling writes every share with one broadcast write into the
``(N, C, out_h, k, out_w, k)`` view of the windowed ``[:out_h*k, :out_w*k]``
region.  Trailing rows and columns no window covers (a 5x5 input under
``k = 2``) stay ``+0.0``, as the scatter leaves them.  Both write ``g + 0.0``,
so a ``-0.0`` gradient (``ReLU`` backward makes them) lands as ``+0.0``,
exactly as the ``0.0 + g`` accumulation of the scatter does: the two paths
are bitwise identical.

Backward context follows the cache lifecycle documented in
:mod:`repro.nn.layers.base`: max pooling caches only the compact arg-max
index map (``k²`` times smaller than the window tensor the seed
implementation retained), average pooling only the input geometry, both only
in training mode, and both release their caches at the end of ``backward``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float, default_dtype
from repro.nn.functional import conv_output_size, pad_images
from repro.nn.layers.base import Layer
from repro.utils.validation import check_positive_int


class _Pool2D(Layer):
    """Shared geometry/bookkeeping for 2-D pooling layers."""

    _cache_attrs = ("_input_shape", "_out_hw")

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

    # ------------------------------------------------------------- geometry
    def _check_input(self, x: np.ndarray) -> Tuple[int, int]:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got shape {x.shape}")
        out_h = conv_output_size(x.shape[2], self.pool_size, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], self.pool_size, self.stride, self.padding)
        return out_h, out_w

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

    def _scatter(self, contributions) -> np.ndarray:
        """Sum per-offset gradient contributions into the input and crop padding.

        ``contributions`` maps each kernel offset's spatial slices to a
        ``(N, C, out_h, out_w)``-broadcastable gradient term; each add is one
        vectorized strided operation.
        """
        n, c, h, w = self._input_shape
        grad_padded = np.zeros(
            (n, c, h + 2 * self.padding, w + 2 * self.padding), dtype=default_dtype()
        )
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
            # Compact arg-max map; descending order (down to and including
            # offset 0) makes the first/lowest offset win ties, matching
            # ``argmax`` over explicit windows.
            argmax = np.zeros(out.shape, dtype=np.int16)
            for t in range(len(slabs) - 1, -1, -1):
                np.copyto(argmax, np.int16(t), where=(slabs[t] == out))
            self._input_shape = x.shape
            self._out_hw = (out_h, out_w)
            self._argmax = argmax
        else:
            self.release_caches()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        out_h, out_w = self._check_grad(grad_output)
        argmax = self._argmax
        if self._windows_disjoint():
            n, c, h, w = self._input_shape
            k = self.pool_size
            # Flat index of each window's arg-max cell: the offset of window
            # entry t inside its window, plus the window's top-left corner,
            # plus the (n, c) image's base.
            cells = np.array([(t // k) * w + t % k for t in range(k * k)], dtype=np.intp)
            cells = cells.take(argmax)
            corners = np.arange(0, out_h * k * w, k * w, dtype=np.intp)[:, None]
            cells += corners + np.arange(0, out_w * k, k, dtype=np.intp)
            cells += np.arange(0, n * c * h * w, h * w, dtype=np.intp).reshape(n, c, 1, 1)
            grad_input = np.zeros(self._input_shape, dtype=default_dtype())
            grad_input.reshape(-1)[cells] = grad_output + 0.0
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
            acc = slab.copy() if acc is None else np.add(acc, slab, out=acc)
        out = acc / (self.pool_size * self.pool_size)
        if self.training:
            self._input_shape = x.shape
            self._out_hw = (out_h, out_w)
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
            grad_input = np.zeros(self._input_shape, dtype=default_dtype())
            # Splitting the region's two spatial axes is always a view.
            windows = grad_input[:, :, : out_h * k, : out_w * k].reshape(n, c, out_h, k, out_w, k)
            np.add(share[:, :, :, None, :, None], 0.0, out=windows)
        else:
            grad_input = self._scatter(
                (spatial, share) for spatial in self._offset_slices(out_h, out_w)
            )
        self.release_caches()
        return grad_input
