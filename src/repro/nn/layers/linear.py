"""Dense (fully-connected) layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float
from repro.nn.initializers import Zeros, get_initializer
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int


class Linear(Layer):
    """Affine map ``y = x · Wᵀ + b`` with ``W ∈ R^{out_features × in_features}``.

    The weight orientation (one row per output neuron) matches the paper's
    ``W ∈ R^{N×M}`` convention, where ``N`` is the number of output neurons
    and ``M`` the fan-in; this is the matrix that rank clipping factorizes and
    that the hardware mapper tiles onto crossbars.
    """

    _cache_attrs = ("_input_cache",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        weight_init="he_normal",
        name: str = "",
        rng: RngLike = None,
    ):
        super().__init__(name=name or "linear")
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.use_bias = bool(bias)

        rng = as_rng(rng)
        init = get_initializer(weight_init)
        weight = init((self.out_features, self.in_features), self.in_features, self.out_features, rng)
        self.weight = self.add_parameter("weight", Parameter(weight))
        if self.use_bias:
            bias_init = Zeros()((self.out_features,), self.in_features, self.out_features, rng)
            self.bias: Optional[Parameter] = self.add_parameter("bias", Parameter(bias_init))
        else:
            self.bias = None
        self._input_cache: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- math
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input_cache = x if self.training else None
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._input_cache is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        x = self._input_cache
        grad_output = as_float(grad_output)
        if grad_output.shape != (x.shape[0], self.out_features):
            raise ShapeError(
                f"{self.name}: expected grad_output of shape "
                f"({x.shape[0]}, {self.out_features}), got {grad_output.shape}"
            )
        self.weight.accumulate_grad(grad_output.T @ x)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        self.release_caches()
        return grad_output @ self.weight.data if need_input_grad else None

    # ------------------------------------------------------------- geometry
    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"{self.name}: expected per-sample input shape ({self.in_features},), "
                f"got {input_shape}"
            )
        return (self.out_features,)

    @property
    def weight_matrix(self) -> np.ndarray:
        """The ``N×M`` weight matrix seen by rank clipping and the hardware mapper."""
        return self.weight.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Linear(name={self.name!r}, in={self.in_features}, out={self.out_features}, "
            f"bias={self.use_bias})"
        )
