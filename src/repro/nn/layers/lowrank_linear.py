"""Low-rank factorized dense layer.

A :class:`LowRankLinear` keeps the factorization ``W ≈ U · Vᵀ`` explicit:
``U ∈ R^{out×K}`` and ``V ∈ R^{in×K}``.  The forward pass computes
``y = ((x · V) · Uᵀ) + b`` which corresponds to two crossbar stages in the
hardware realization (``V`` maps the ``in`` inputs to ``K`` intermediate
lines, ``Uᵀ`` maps those to the ``out`` outputs).

Rank clipping (:class:`repro.core.rank_clipping.RankClipper`) shrinks ``K``
in place during training by projecting ``U`` onto a lower-rank subspace and
absorbing the projection basis into ``V``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import RankError, ShapeError
from repro.nn.dtype import as_float
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int


class LowRankLinear(Layer):
    """Fully-connected layer with an explicit rank-``K`` factorization."""

    _cache_attrs = ("_input_cache", "_mid_cache")

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: Optional[int] = None,
        *,
        bias: bool = True,
        weight_init="he_normal",
        name: str = "",
        rng: RngLike = None,
    ):
        super().__init__(name=name or "lowrank_linear")
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        max_rank = min(self.in_features, self.out_features)
        if rank is None:
            rank = max_rank
        rank = check_positive_int(rank, "rank")
        if rank > max_rank:
            raise RankError(
                f"rank {rank} exceeds min(in_features, out_features) = {max_rank}"
            )
        self.rank = rank
        self.use_bias = bool(bias)

        rng = as_rng(rng)
        init = get_initializer(weight_init)
        # Initialize U and V so that the product U·Vᵀ has roughly the same
        # scale as a dense He-initialized weight matrix of the same shape.
        u = init((self.out_features, self.rank), self.rank, self.out_features, rng)
        v = init((self.in_features, self.rank), self.in_features, self.rank, rng)
        self.u = self.add_parameter("u", Parameter(u))
        self.v = self.add_parameter("v", Parameter(v))
        if self.use_bias:
            self.bias: Optional[Parameter] = self.add_parameter(
                "bias", Parameter(np.zeros(self.out_features))
            )
        else:
            self.bias = None
        self._input_cache: Optional[np.ndarray] = None
        self._mid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------ factories
    @classmethod
    def from_dense(
        cls,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        rank: Optional[int] = None,
        *,
        name: str = "",
    ) -> "LowRankLinear":
        """Build a factorized layer from a dense ``(out, in)`` weight matrix.

        The split is computed by SVD, so ``rank=None`` (full rank) reproduces
        the dense weight exactly — the "full-rank LRA without reconstruction
        errors" that Algorithm 2 starts from — while a smaller ``rank`` gives
        the optimal (Frobenius) truncation, i.e. the paper's "Direct LRA"
        baseline.
        """
        weight = as_float(weight)
        if weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {weight.shape}")
        out_features, in_features = weight.shape
        max_rank = min(in_features, out_features)
        if rank is None:
            rank = max_rank
        if rank > max_rank:
            raise RankError(f"rank {rank} exceeds min(out, in) = {max_rank}")
        layer = cls(
            in_features,
            out_features,
            rank=rank,
            bias=bias is not None,
            name=name or "lowrank_linear",
        )
        u_mat, s, vt = np.linalg.svd(weight, full_matrices=False)
        k = rank
        layer.u.data = u_mat[:, :k] * s[:k]
        # ascontiguousarray: vt.T is a Fortran-ordered view, and BLAS kernels
        # for transposed operands are not bit-for-bit interchangeable with the
        # contiguous path; every Parameter keeps one canonical (C) layout so
        # downstream products are layout-independent (the lockstep trainer's
        # stacked matmuls rely on this).
        layer.v.data = np.ascontiguousarray(vt[:k, :].T)
        if bias is not None:
            layer.bias.data = as_float(bias).copy()
        return layer

    # ----------------------------------------------------------------- math
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        mid = x @ self.v.data  # (batch, K)
        if self.training:
            self._input_cache = x
            self._mid_cache = mid
        else:
            self.release_caches()
        out = mid @ self.u.data.T  # (batch, out)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._input_cache is None or self._mid_cache is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        x = self._input_cache
        mid = self._mid_cache
        grad_output = as_float(grad_output)
        if grad_output.shape != (x.shape[0], self.out_features):
            raise ShapeError(
                f"{self.name}: expected grad_output of shape "
                f"({x.shape[0]}, {self.out_features}), got {grad_output.shape}"
            )
        # y = mid · Uᵀ ; mid = x · V
        self.u.accumulate_grad(grad_output.T @ mid)
        grad_mid = grad_output @ self.u.data  # (batch, K)
        self.v.accumulate_grad(x.T @ grad_mid)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        self.release_caches()
        return grad_mid @ self.v.data.T if need_input_grad else None

    # -------------------------------------------------------------- clipping
    def effective_weight(self) -> np.ndarray:
        """Return the reconstructed dense weight ``U · Vᵀ`` (shape out×in)."""
        return self.u.data @ self.v.data.T

    def set_factors(self, u: np.ndarray, v: np.ndarray) -> None:
        """Replace the factors (used by rank clipping), updating ``rank``.

        Any pruning masks on the old factors are discarded because their
        shapes no longer apply.
        """
        u = as_float(u)
        v = as_float(v)
        if u.ndim != 2 or v.ndim != 2:
            raise ShapeError("factors must be 2-D")
        if u.shape[0] != self.out_features:
            raise ShapeError(
                f"U must have {self.out_features} rows, got shape {u.shape}"
            )
        if v.shape[0] != self.in_features:
            raise ShapeError(
                f"V must have {self.in_features} rows, got shape {v.shape}"
            )
        if u.shape[1] != v.shape[1]:
            raise ShapeError(
                f"U and V must share the rank dimension, got {u.shape} and {v.shape}"
            )
        new_rank = u.shape[1]
        if new_rank < 1 or new_rank > min(self.in_features, self.out_features):
            raise RankError(f"new rank {new_rank} is out of range for this layer")
        self.u.clear_mask()
        self.v.clear_mask()
        self.u.data = u.copy()
        self.u.grad = np.zeros_like(self.u.data)
        self.v.data = v.copy()
        self.v.grad = np.zeros_like(self.v.data)
        self.rank = new_rank

    # ------------------------------------------------------------- geometry
    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"{self.name}: expected per-sample input shape ({self.in_features},), "
                f"got {input_shape}"
            )
        return (self.out_features,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LowRankLinear(name={self.name!r}, in={self.in_features}, "
            f"out={self.out_features}, rank={self.rank})"
        )
