"""Sequential network container.

:class:`Sequential` chains layers, provides forward/backward over the whole
stack, exposes parameters for the optimizers and regularizers, and offers the
layer-lookup helpers (by name, by type) that the rank-clipping and
group-deletion passes use to find the factorizable layers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import LayerError
from repro.nn.dtype import as_float
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter


class Sequential:
    """An ordered stack of layers with unique names."""

    def __init__(self, layers: Sequence[Layer] = (), name: str = "sequential"):
        self.name = name
        self._layers: List[Layer] = []
        for layer in layers:
            self.add(layer)

    # ------------------------------------------------------------ structure
    def add(self, layer: Layer) -> "Sequential":
        """Append ``layer``, enforcing unique layer names within the network."""
        if not isinstance(layer, Layer):
            raise LayerError(f"expected a Layer, got {type(layer).__name__}")
        if any(existing.name == layer.name for existing in self._layers):
            raise LayerError(f"duplicate layer name {layer.name!r} in network {self.name!r}")
        self._layers.append(layer)
        return self

    @property
    def layers(self) -> List[Layer]:
        """The ordered list of layers (do not mutate in place)."""
        return list(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self._layers)

    def __getitem__(self, index: int) -> Layer:
        return self._layers[index]

    def get_layer(self, name: str) -> Layer:
        """Return the layer with the given name, raising ``LayerError`` if absent."""
        for layer in self._layers:
            if layer.name == name:
                return layer
        raise LayerError(f"network {self.name!r} has no layer named {name!r}")

    def layer_index(self, name: str) -> int:
        """Return the position of the layer named ``name``."""
        for idx, layer in enumerate(self._layers):
            if layer.name == name:
                return idx
        raise LayerError(f"network {self.name!r} has no layer named {name!r}")

    def replace_layer(self, name: str, new_layer: Layer) -> "Sequential":
        """Swap the layer called ``name`` for ``new_layer`` (same position)."""
        idx = self.layer_index(name)
        if any(l.name == new_layer.name for i, l in enumerate(self._layers) if i != idx):
            raise LayerError(f"duplicate layer name {new_layer.name!r} in network {self.name!r}")
        self._layers[idx] = new_layer
        return self

    def layers_of_type(self, *layer_types: Type[Layer]) -> List[Layer]:
        """Return the layers that are instances of any of ``layer_types``."""
        return [layer for layer in self._layers if isinstance(layer, layer_types)]

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full forward pass."""
        out = x
        for layer in self._layers:
            out = layer.forward(out)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Back-propagate through the stack, returning the input gradient.

        With ``need_input_grad=False`` (what the trainers pass) the pass stops
        at the first layer with parameters, as the lockstep
        :class:`~repro.nn.batched.NetworkStack` does: that layer accumulates
        its parameter gradients but skips its input gradient, and the
        parameter-free layers before it only release their caches, since no
        parameter consumes what they would compute.  Every parameter gradient
        is bit-identical to the full pass; the return value is ``None``.
        """
        grad = grad_output
        if need_input_grad:
            for layer in reversed(self._layers):
                grad = layer.backward(grad)
            return grad
        first = next((i for i, layer in enumerate(self._layers) if layer.parameters()), None)
        if first is not None:
            for layer in reversed(self._layers[first + 1 :]):
                grad = layer.backward(grad)
            self._layers[first].backward(grad, need_input_grad=False)
        for layer in self._layers[:first]:
            layer.release_caches()
        return None

    def predict(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Inference-mode forward pass, optionally in mini-batches."""
        was_training = [layer.training for layer in self._layers]
        self.eval()
        try:
            if batch_size is None:
                return self.forward(x)
            outputs = []
            for start in range(0, x.shape[0], batch_size):
                outputs.append(self.forward(x[start : start + batch_size]))
            return np.concatenate(outputs, axis=0)
        finally:
            for layer, flag in zip(self._layers, was_training):
                layer.training = flag

    def predict_classes(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Return arg-max class predictions."""
        return np.argmax(self.predict(x, batch_size=batch_size), axis=1)

    # ------------------------------------------------------------ parameters
    def parameters(self) -> List[Parameter]:
        """All parameters in layer order."""
        params: List[Parameter] = []
        for layer in self._layers:
            params.extend(layer.parameters().values())
        return params

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        """Iterate over ``(qualified_name, parameter)`` across all layers."""
        for layer in self._layers:
            yield from layer.named_parameters()

    def zero_grad(self) -> None:
        """Zero all parameter gradients."""
        for layer in self._layers:
            layer.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(layer.num_parameters() for layer in self._layers)

    def train(self) -> "Sequential":
        """Put every layer in training mode."""
        for layer in self._layers:
            layer.train()
        return self

    def eval(self) -> "Sequential":
        """Put every layer in inference mode."""
        for layer in self._layers:
            layer.eval()
        return self

    def release_caches(self) -> None:
        """Drop every layer's cached forward/backward context (frees O(batch) memory)."""
        for layer in self._layers:
            layer.release_caches()

    # --------------------------------------------------------------- export
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``qualified_name -> array`` mapping of all parameter values."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], *, strict: bool = True) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        With ``strict=True`` every parameter must be present in ``state`` and
        vice versa; shapes must always match.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if strict and (missing or unexpected):
            raise LayerError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            value = as_float(state[name])
            if value.shape != param.data.shape:
                raise LayerError(
                    f"shape mismatch for {name!r}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()
            param.zero_grad()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Propagate a per-sample input shape through every layer."""
        shape = tuple(input_shape)
        for layer in self._layers:
            shape = layer.output_shape(shape)
        return shape

    def summary(self, input_shape: Optional[Tuple[int, ...]] = None) -> str:
        """Human-readable table of layers, shapes and parameter counts."""
        lines = [f"Network {self.name!r}"]
        header = f"{'layer':<24}{'type':<18}{'output shape':<20}{'params':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        shape = tuple(input_shape) if input_shape is not None else None
        total = 0
        for layer in self._layers:
            if shape is not None:
                shape = layer.output_shape(shape)
                shape_str = str(shape)
            else:
                shape_str = "?"
            count = layer.num_parameters()
            total += count
            lines.append(
                f"{layer.name:<24}{type(layer).__name__:<18}{shape_str:<20}{count:>10}"
            )
        lines.append("-" * len(header))
        lines.append(f"total parameters: {total}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(layer.name for layer in self._layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"
