"""Loop-based reference kernels (the pre-vectorization implementations).

These are the original offset-loop implementations of the im2col / col2im
transforms and the pooling window extract / scatter kernels, kept verbatim so

* the parity test suite can assert the vectorized kernels in
  :mod:`repro.nn.functional` produce identical results, and
* the kernel benchmark (``benchmarks/test_bench_kernels.py``) can report the
  speedup of the vectorized engine against a fixed baseline.

They are not used on any production path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_size


def pad_images(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad an NCHW batch along the spatial axes (the seed's ``np.pad`` helper)."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")


def im2col_loop(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Offset-loop im2col: gather one kernel offset per iteration."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x_padded = pad_images(x, padding)
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x_padded[:, :, i:i_max:stride, j:j_max:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


def col2im_loop(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Offset-loop col2im: scatter-add one kernel offset per iteration."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def extract_pool_windows_loop(
    x: np.ndarray, pool_size: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Materialize all pooling windows as ``(N, C, out_h, out_w, k*k)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, pool_size, stride, padding)
    out_w = conv_output_size(w, pool_size, stride, padding)
    x_padded = pad_images(x, padding)
    windows = np.empty((n, c, out_h, out_w, pool_size * pool_size), dtype=x.dtype)
    idx = 0
    for i in range(pool_size):
        i_max = i + stride * out_h
        for j in range(pool_size):
            j_max = j + stride * out_w
            windows[..., idx] = x_padded[:, :, i:i_max:stride, j:j_max:stride]
            idx += 1
    return windows, out_h, out_w


def scatter_pool_windows_loop(
    grad_windows: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    pool_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`extract_pool_windows_loop` (sum overlapping windows)."""
    n, c, h, w = input_shape
    out_h, out_w = grad_windows.shape[2], grad_windows.shape[3]
    grad_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    idx = 0
    for i in range(pool_size):
        i_max = i + stride * out_h
        for j in range(pool_size):
            j_max = j + stride * out_w
            grad_padded[:, :, i:i_max:stride, j:j_max:stride] += grad_windows[..., idx]
            idx += 1
    if padding == 0:
        return grad_padded
    return grad_padded[:, :, padding:-padding, padding:-padding]


def maxpool_forward_backward_loop(
    x: np.ndarray, pool_size: int, stride: int, padding: int, grad_output: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Full max-pool forward + backward with zero padding (seed semantics)."""
    windows, out_h, out_w = extract_pool_windows_loop(x, pool_size, stride, padding)
    out = windows.max(axis=-1)
    max_idx = windows.argmax(axis=-1)
    grad_windows = np.zeros_like(windows)
    np.put_along_axis(grad_windows, max_idx[..., None], grad_output[..., None], axis=-1)
    grad_x = scatter_pool_windows_loop(grad_windows, x.shape, pool_size, stride, padding)
    return out, grad_x


def avgpool_forward_backward_loop(
    x: np.ndarray, pool_size: int, stride: int, padding: int, grad_output: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Full average-pool forward + backward (seed semantics)."""
    windows, out_h, out_w = extract_pool_windows_loop(x, pool_size, stride, padding)
    out = windows.mean(axis=-1)
    share = grad_output[..., None] / windows.shape[-1]
    grad_windows = np.broadcast_to(share, windows.shape).copy()
    grad_x = scatter_pool_windows_loop(grad_windows, x.shape, pool_size, stride, padding)
    return out, grad_x
