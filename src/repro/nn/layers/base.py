"""Layer protocol.

Every layer implements an explicit ``forward`` / ``backward`` pair instead of
relying on an autograd engine.  ``forward`` caches whatever it needs for the
backward pass on the instance; ``backward`` consumes the cache, accumulates
parameter gradients into the layer's :class:`~repro.nn.parameter.Parameter`
objects and returns the gradient with respect to the layer input.

Layers with parameters (the convolution and dense layers, full and low
rank) also take ``backward(grad_output, need_input_grad=False)``: it
accumulates the parameter gradients exactly as the full call does, skips the
input gradient and returns ``None``.  :meth:`~repro.nn.network.Sequential.backward`
uses it on the network's first such layer, whose input gradient feeds no
parameter.

Cache lifecycle
---------------
Backward context is cached **only in training mode** and is released at the
end of ``backward`` — a layer never retains O(batch) activations across
iterations or in inference-only use.  Layers start in training mode so the
common construct-forward-backward pattern works out of the box;
:meth:`~repro.nn.network.Sequential.predict` switches to ``eval`` for the
duration of an inference pass, which skips caching entirely.  Each layer
lists its cache slots in ``_cache_attrs`` so :meth:`release_caches` can drop
them generically (e.g. before serializing or deep-copying a network).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.exceptions import LayerError
from repro.nn.parameter import Parameter


class Layer:
    """Base class for all layers."""

    #: Names of instance attributes holding backward context; set by subclasses.
    _cache_attrs: Tuple[str, ...] = ()

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()
        self._parameters: Dict[str, Parameter] = {}
        self.training = True

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for ``x`` and cache the backward context."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. the input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # --------------------------------------------------------------- caches
    def release_caches(self) -> None:
        """Drop any cached forward/backward context held by this layer."""
        for attr in self._cache_attrs:
            setattr(self, attr, None)

    # ------------------------------------------------------------ parameters
    def add_parameter(self, key: str, param: Parameter) -> Parameter:
        """Register a parameter under ``key`` (scoped by the layer name)."""
        if key in self._parameters:
            raise LayerError(f"layer {self.name!r} already has a parameter named {key!r}")
        param.name = f"{self.name}.{key}"
        self._parameters[key] = param
        return param

    def parameters(self) -> Dict[str, Parameter]:
        """Return this layer's parameters keyed by their local name."""
        return dict(self._parameters)

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        """Iterate over ``(qualified_name, parameter)`` pairs."""
        for key, param in self._parameters.items():
            yield f"{self.name}.{key}", param

    def zero_grad(self) -> None:
        """Zero the gradient buffers of every parameter in this layer."""
        for param in self._parameters.values():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable entries in the layer."""
        return sum(p.size for p in self._parameters.values())

    # ---------------------------------------------------------------- modes
    def train(self) -> "Layer":
        """Switch the layer to training mode (enables caching, dropout, ...)."""
        self.training = True
        return self

    def eval(self) -> "Layer":
        """Switch the layer to inference mode (no backward caching)."""
        self.training = False
        return self

    # --------------------------------------------------------------- export
    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Return the per-sample output shape for a per-sample ``input_shape``.

        Layers that do not change the shape return it unchanged; layers with
        richer geometry override this.
        """
        return input_shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
