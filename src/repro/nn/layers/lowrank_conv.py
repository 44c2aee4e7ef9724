"""Low-rank factorized 2-D convolution.

A convolution with ``F`` filters over a receptive field of size
``M = C·kh·kw`` owns a weight matrix ``W ∈ R^{F×M}``.  Factorizing
``W ≈ U·Vᵀ`` with rank ``K`` turns the layer into a cascade of

1. a convolution with ``K`` "basis" filters (the rows of ``Vᵀ`` reshaped to
   ``K×C×kh×kw``), followed by
2. a ``1×1`` convolution with weight ``U ∈ R^{F×K}`` mixing the basis
   responses into the ``F`` original output channels.

which is exactly what the paper maps onto two crossbar stages.  The
implementation shares the im2col path with :class:`~repro.nn.layers.conv.Conv2D`
so both stages are a single matrix product each.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import RankError, ShapeError
from repro.nn import functional as F
from repro.nn.dtype import as_float
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int


class LowRankConv2D(Layer):
    """2-D convolution with an explicit rank-``K`` factorization of its kernel."""

    _cache_attrs = ("_cols_cache", "_mid_cache", "_input_shape", "_out_hw")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank: Optional[int] = None,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        weight_init="he_normal",
        name: str = "",
        rng: RngLike = None,
    ):
        super().__init__(name=name or "lowrank_conv2d")
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)
        self.use_bias = bool(bias)

        fan_in = self.in_channels * self.kernel_size * self.kernel_size
        max_rank = min(self.out_channels, fan_in)
        if rank is None:
            rank = max_rank
        rank = check_positive_int(rank, "rank")
        if rank > max_rank:
            raise RankError(f"rank {rank} exceeds min(out_channels, fan_in) = {max_rank}")
        self.rank = rank

        rng = as_rng(rng)
        init = get_initializer(weight_init)
        u = init((self.out_channels, self.rank), self.rank, self.out_channels, rng)
        v = init((fan_in, self.rank), fan_in, self.rank, rng)
        self.u = self.add_parameter("u", Parameter(u))
        self.v = self.add_parameter("v", Parameter(v))
        if self.use_bias:
            self.bias: Optional[Parameter] = self.add_parameter(
                "bias", Parameter(np.zeros(self.out_channels))
            )
        else:
            self.bias = None
        self._cols_cache: Optional[np.ndarray] = None
        self._mid_cache: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------ factories
    @classmethod
    def from_conv(cls, conv, rank: Optional[int] = None, *, name: str = "") -> "LowRankConv2D":
        """Build a factorized copy of a dense :class:`~repro.nn.layers.conv.Conv2D`.

        With ``rank=None`` the copy is numerically exact (full-rank SVD split);
        with a smaller rank it is the optimal Frobenius truncation ("Direct
        LRA").
        """
        weight_matrix = conv.weight_matrix
        max_rank = min(weight_matrix.shape)
        if rank is None:
            rank = max_rank
        if rank > max_rank:
            raise RankError(f"rank {rank} exceeds min(out_channels, fan_in) = {max_rank}")
        layer = cls(
            conv.in_channels,
            conv.out_channels,
            conv.kernel_size,
            rank=rank,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            name=name or f"{conv.name}_lowrank",
        )
        u_mat, s, vt = np.linalg.svd(weight_matrix, full_matrices=False)
        layer.u.data = u_mat[:, :rank] * s[:rank]
        # ascontiguousarray: keep the canonical C layout (see
        # LowRankLinear.from_dense) so products do not depend on whether the
        # factor is a transposed SVD view or a materialized array.
        layer.v.data = np.ascontiguousarray(vt[:rank, :].T)
        if conv.bias is not None:
            layer.bias.data = conv.bias.data.copy()
        return layer

    # ----------------------------------------------------------------- math
    @property
    def fan_in(self) -> int:
        """Flattened receptive-field size ``in_channels · kh · kw``."""
        return self.in_channels * self.kernel_size * self.kernel_size

    def effective_weight(self) -> np.ndarray:
        """Reconstructed dense kernel matrix ``U·Vᵀ`` of shape ``(out_channels, fan_in)``."""
        return self.u.data @ self.v.data.T

    def effective_kernel(self) -> np.ndarray:
        """Reconstructed kernel tensor of shape ``(out, in, kh, kw)``."""
        return self.effective_weight().reshape(
            self.out_channels, self.in_channels, self.kernel_size, self.kernel_size
        )

    def set_factors(self, u: np.ndarray, v: np.ndarray) -> None:
        """Replace the factors (used by rank clipping), updating ``rank``."""
        u = as_float(u)
        v = as_float(v)
        if u.ndim != 2 or v.ndim != 2:
            raise ShapeError("factors must be 2-D")
        if u.shape[0] != self.out_channels:
            raise ShapeError(f"U must have {self.out_channels} rows, got shape {u.shape}")
        if v.shape[0] != self.fan_in:
            raise ShapeError(f"V must have {self.fan_in} rows, got shape {v.shape}")
        if u.shape[1] != v.shape[1]:
            raise ShapeError(f"U and V must share the rank dimension, got {u.shape} and {v.shape}")
        new_rank = u.shape[1]
        if new_rank < 1 or new_rank > min(self.out_channels, self.fan_in):
            raise RankError(f"new rank {new_rank} is out of range for this layer")
        self.u.clear_mask()
        self.v.clear_mask()
        self.u.data = u.copy()
        self.u.grad = np.zeros_like(self.u.data)
        self.v.data = v.copy()
        self.v.grad = np.zeros_like(self.v.data)
        self.rank = new_rank

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
        mid = cols @ self.v.data  # (N*oh*ow, K): the K basis-filter responses
        if self.training:
            self._cols_cache = cols
            self._input_shape = x.shape
            self._out_hw = (out_h, out_w)
            self._mid_cache = mid
        else:
            self.release_caches()
        out = mid @ self.u.data.T  # (N*oh*ow, out_channels)
        if self.bias is not None:
            out += self.bias.data
        n = x.shape[0]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols_cache is None or self._mid_cache is None:
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
        self.u.accumulate_grad(grad_mat.T @ self._mid_cache)
        grad_mid = grad_mat @ self.u.data  # (N*oh*ow, K)
        self.v.accumulate_grad(self._cols_cache.T @ grad_mid)
        if self.bias is not None:
            # On this C-contiguous grad_mat, einsum adds the rows in sequence
            # as .sum(axis=0) does (same bytes), without a reduction loop
            # over one out_channels-wide row per step.
            self.bias.accumulate_grad(np.einsum("mc->c", grad_mat))
        # The V factor transposed to (rank, fan_in) plays the weight-matrix
        # role of the fused input-gradient kernel: grad_cols = grad_mid · Vᵀ.
        grad_input = None
        if need_input_grad:
            grad_input = F.conv_backward_input(
                grad_mid,
                self.v.data.T,
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
            f"LowRankConv2D(name={self.name!r}, in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, rank={self.rank})"
        )
