"""Array-level building blocks used by the layers in :mod:`repro.nn.layers`.

Everything here is a pure function of numpy arrays: image-to-column
transformations for convolutions, pooling-window helpers, numerically stable
softmax, one-hot encoding, and padding helpers.  Layers keep the stateful
bookkeeping (parameters, caches) and delegate the math to this module so the
math can be tested in isolation.

The convolution/pooling kernels are vectorized:

* :func:`im2col` extracts receptive fields through a **zero-copy**
  :func:`numpy.lib.stride_tricks.sliding_window_view`; the only data movement
  is the single gather that lays the patch matrix out contiguously for the
  following matrix multiply.
* :func:`col2im` scatters with one strided slice-add per kernel offset (each
  statement is a full vectorized operation over a batch chunk's
  ``C·out_h·out_w`` entries), accumulating channel-last one cache-sized
  chunk of images at a time.  Disjoint windows (``stride >= kernel``) take
  a loop-free strided *assignment*.
* :func:`conv_backward_input` fuses the input-gradient matmul with that
  scatter, one small matmul per kernel offset accumulated channel-last.

The pooling layers (:mod:`repro.nn.layers.pooling`) reduce over shifted
zero-copy slices of :func:`pad_images` output and never materialize windows.

The original offset-loop kernels are preserved in
:mod:`repro.nn._reference` for parity tests and benchmarks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float, default_dtype


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding} gives non-positive output {out}"
        )
    return out


def pad_images(x: np.ndarray, padding: int, *, value: float = 0.0) -> np.ndarray:
    """Pad an NCHW batch symmetrically along the spatial axes with ``value``.

    Max pooling pads with ``-inf`` so padding can never win the max (and can
    therefore never swallow gradient); everything else pads with zeros.
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    # One allocation plus one interior copy: ``np.pad`` fills the border
    # region by region and costs 2-4x more on the presets' small batches.
    padded = np.zeros(shape, dtype=x.dtype) if value == 0 else np.full(shape, value, x.dtype)
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def sliding_windows(
    x_padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int, *, writeable: bool = False
) -> np.ndarray:
    """Zero-copy ``(N, C, out_h, out_w, kh, kw)`` view of all receptive fields.

    ``x_padded`` must already include any spatial padding.  No data is moved:
    the result is a strided view whose last two axes walk the kernel extent.
    """
    view = sliding_window_view(x_padded, (kernel_h, kernel_w), axis=(2, 3), writeable=writeable)
    return view[:, :, ::stride, ::stride]


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW batch into a patch matrix for matrix-multiply convolution.

    Parameters
    ----------
    x:
        Input images of shape ``(N, C, H, W)``.
    kernel_h, kernel_w:
        Spatial extent of the convolution kernel.
    stride, padding:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)`` where
        each row is one receptive field, flattened channel-major.
    out_h, out_w:
        Spatial output dimensions.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects a 4-D NCHW array, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x_padded = pad_images(x, padding)
    windows = sliding_windows(x_padded, kernel_h, kernel_w, stride)
    # The transpose + reshape is the single gather that materializes the
    # patch matrix; everything before it is stride arithmetic.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )
    return cols, out_h, out_w


#: Byte budget of the column slice one :func:`col2im` chunk scatters from:
#: one core's L2 (2 MiB on the 2-core x86_64 it was swept on, where 1 and
#: 4 MiB were both slower on a 32×3×32×32 batch at 5×5, stride 1, pad 2).
COL2IM_CHUNK_BYTES = 2 << 20


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold a patch matrix back into an NCHW batch (adjoint of :func:`im2col`).

    Overlapping patch contributions are summed, which is exactly the gradient
    of :func:`im2col` with respect to its input.  When windows are disjoint
    (``stride >= kernel``) the scatter is a single loop-free strided
    assignment; otherwise one vectorized slice-add per kernel offset
    accumulates the overlaps, channel-last in cache-sized batch chunks (the
    result is then a transposed NCHW-shaped view).
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    expected_rows = n * out_h * out_w
    expected_cols = c * kernel_h * kernel_w
    if cols.shape != (expected_rows, expected_cols):
        raise ShapeError(
            f"col2im expected cols of shape {(expected_rows, expected_cols)}, got {cols.shape}"
        )
    padded_h, padded_w = h + 2 * padding, w + 2 * padding
    cols6 = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    if stride >= kernel_h and stride >= kernel_w:
        # Disjoint windows: every padded pixel belongs to at most one window,
        # so the adjoint is a pure (vectorized) scatter with no accumulation.
        x_padded = np.zeros((n, c, padded_h, padded_w), dtype=cols.dtype)
        target = sliding_windows(x_padded, kernel_h, kernel_w, stride, writeable=True)
        target[...] = cols6.transpose(0, 3, 1, 2, 4, 5)
    else:
        # Overlapping windows: accumulate one kernel offset at a time,
        # channel-last ``(N, H+2p, W+2p, C)``, so each target row is a run of
        # ``C``-vectors and the read of ``cols6[..., i, j]`` walks the column
        # matrix in row order.  Images go in chunks whose column slice stays
        # in L2 across the k² passes, so ``cols`` streams from memory once
        # rather than once per offset.  The per-element add order is the
        # NCHW loop's, so the values are bitwise the same.
        x_padded = np.zeros((n, padded_h, padded_w, c), dtype=cols.dtype)
        image_bytes = cols.itemsize * expected_cols * out_h * out_w
        chunk = max(1, COL2IM_CHUNK_BYTES // max(image_bytes, 1))
        for start in range(0, n, chunk):
            target = x_padded[start : start + chunk]
            source = cols6[start : start + chunk]
            for i in range(kernel_h):
                i_max = i + stride * out_h
                for j in range(kernel_w):
                    j_max = j + stride * out_w
                    target[:, i:i_max:stride, j:j_max:stride] += source[..., i, j]
        x_padded = x_padded.transpose(0, 3, 1, 2)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


#: Minimum input-channel count for the fused per-offset conv backward; below
#: this the per-offset matmuls are too skinny to beat one large matmul.
FUSED_BACKWARD_MIN_CHANNELS = 8


def conv_backward_input(
    grad_mat: np.ndarray,
    weight_matrix: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Input gradient of an im2col convolution, fused per kernel offset.

    Computes ``col2im(grad_mat @ weight_matrix)`` — when profitable without
    materializing the ``(N·out_h·out_w, C·kh·kw)`` column gradient: for every
    kernel offset ``(i, j)`` the slice ``weight_matrix[:, :, i, j]`` (viewing
    the matrix as ``(out, C, kh, kw)``) is multiplied against ``grad_mat``
    and the ``(N·out_h·out_w, C)`` result is accumulated straight into the
    padded input gradient.  For overlapping windows with enough input
    channels this replaces the single large matmul + k² strided adds of the
    unfused path with k² small matmuls that write directly to their
    destination, skipping one full-size intermediate array
    (~2x on 5×5/stride-1 mid-network convolutions).  The accumulator is
    channel-last, ``(N, H+2p, W+2p, C)``: each contribution already has that
    row order, so every add runs over contiguous ``C``-runs, and the result
    is returned as one transposed (NCHW-shaped) view of it.  Matmuls and the
    per-element add order are those of an NCHW accumulator, so the values
    are bitwise the same, 1.5-2x faster on the small-scale ConvNet's conv2
    and conv3 shapes (2-core x86_64, OpenBLAS).  Disjoint windows keep
    the loop-free strided-assignment path, and narrow inputs (fewer than
    ``FUSED_BACKWARD_MIN_CHANNELS`` channels, where the per-offset matmuls
    are too skinny for BLAS to win) keep the unfused path.

    Parameters
    ----------
    grad_mat:
        Output gradient as a ``(N·out_h·out_w, out_like)`` matrix (the same
        orientation the forward pass multiplies from the right).
    weight_matrix:
        ``(out_like, C·kh·kw)`` weight matrix (``Conv2D.weight_matrix``, or a
        low-rank factor transposed to this orientation).
    input_shape, kernel_h, kernel_w, stride, padding:
        The convolution geometry being differentiated.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    expected_rows = n * out_h * out_w
    if grad_mat.shape[0] != expected_rows:
        raise ShapeError(
            f"conv_backward_input expected grad_mat with {expected_rows} rows, "
            f"got shape {grad_mat.shape}"
        )
    if weight_matrix.shape != (grad_mat.shape[1], c * kernel_h * kernel_w):
        raise ShapeError(
            f"conv_backward_input expected weight_matrix of shape "
            f"{(grad_mat.shape[1], c * kernel_h * kernel_w)}, got {weight_matrix.shape}"
        )
    if (stride >= kernel_h and stride >= kernel_w) or c < FUSED_BACKWARD_MIN_CHANNELS:
        return col2im(
            grad_mat @ weight_matrix, input_shape, kernel_h, kernel_w, stride, padding
        )
    weight4 = weight_matrix.reshape(grad_mat.shape[1], c, kernel_h, kernel_w)
    # Channel-last accumulator: each (N·out_h·out_w, C) contribution lands
    # with contiguous C-runs instead of a transposed scatter.
    x_padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=grad_mat.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            contribution = grad_mat @ weight4[:, :, i, j]  # (N·out_h·out_w, C)
            x_padded[:, i:i_max:stride, j:j_max:stride] += contribution.reshape(
                n, out_h, out_w, c
            )
    grad_input = x_padded.transpose(0, 3, 1, 2)
    if padding == 0:
        return grad_input
    return grad_input[:, :, padding:-padding, padding:-padding]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer class labels as a ``(len(labels), num_classes)`` one-hot matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must be in [0, {num_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=default_dtype())
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable element-wise logistic sigmoid."""
    x = as_float(x)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out
