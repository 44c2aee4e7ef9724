"""2-D convolution layer implemented with im2col matrix multiplication."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn import functional as F
from repro.nn.dtype import as_float
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int


class Conv2D(Layer):
    """Standard 2-D convolution over NCHW inputs.

    The kernel tensor has shape ``(out_channels, in_channels, kh, kw)``.  The
    flattened view ``(out_channels, in_channels·kh·kw)`` is the ``N×M`` weight
    matrix the paper factorizes (one row per filter), exposed through
    :attr:`weight_matrix`.

    The im2col patch matrix is cached for the backward pass only in training
    mode and released at the end of ``backward`` (see
    :mod:`repro.nn.layers.base` for the cache lifecycle).
    """

    _cache_attrs = ("_cols_cache", "_input_shape", "_out_hw")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        weight_init="he_normal",
        name: str = "",
        rng: RngLike = None,
    ):
        super().__init__(name=name or "conv2d")
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)
        self.use_bias = bool(bias)

        rng = as_rng(rng)
        fan_in = self.in_channels * self.kernel_size * self.kernel_size
        fan_out = self.out_channels * self.kernel_size * self.kernel_size
        init = get_initializer(weight_init)
        kernel = init(
            (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size),
            fan_in,
            fan_out,
            rng,
        )
        self.weight = self.add_parameter("weight", Parameter(kernel))
        if self.use_bias:
            self.bias: Optional[Parameter] = self.add_parameter(
                "bias", Parameter(np.zeros(self.out_channels))
            )
        else:
            self.bias = None
        self._cols_cache: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    # ----------------------------------------------------------------- math
    @property
    def fan_in(self) -> int:
        """Flattened receptive-field size ``in_channels · kh · kw``."""
        return self.in_channels * self.kernel_size * self.kernel_size

    @property
    def weight_matrix(self) -> np.ndarray:
        """The ``(out_channels, fan_in)`` matrix view of the kernel tensor."""
        return self.weight.data.reshape(self.out_channels, self.fan_in)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected input of shape (batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        cols, out_h, out_w = F.im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        if self.training:
            self._cols_cache = cols
            self._input_shape = x.shape
            self._out_hw = (out_h, out_w)
        else:
            self.release_caches()
        out = cols @ self.weight_matrix.T  # (N*out_h*out_w, out_channels)
        if self.bias is not None:
            F.add_conv_bias(out, self.bias.data, out_h * out_w)
        n = x.shape[0]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols_cache is None or self._input_shape is None or self._out_hw is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        n = self._input_shape[0]
        out_h, out_w = self._out_hw
        expected = (n, self.out_channels, out_h, out_w)
        grad_output = as_float(grad_output)
        if grad_output.shape != expected:
            raise ShapeError(
                f"{self.name}: expected grad_output of shape {expected}, got {grad_output.shape}"
            )
        grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_weight = (grad_mat.T @ self._cols_cache).reshape(self.weight.data.shape)
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None:
            # On this C-contiguous grad_mat, einsum adds the rows in sequence
            # as .sum(axis=0) does (same bytes), without a reduction loop
            # over one out_channels-wide row per step.
            self.bias.accumulate_grad(np.einsum("mc->c", grad_mat))
        grad_input = None
        if need_input_grad:
            grad_input = F.conv_backward_input(
                grad_mat,
                self.weight_matrix,
                self._input_shape,
                self.kernel_size,
                self.kernel_size,
                self.stride,
                self.padding,
            )
        self.release_caches()
        return grad_input

    # ------------------------------------------------------------- geometry
    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected per-sample input shape ({self.in_channels}, H, W), "
                f"got {input_shape}"
            )
        _, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(name={self.name!r}, in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
