"""Named experiment registry: the paper's deliverables as spec presets.

Every table and figure of the paper registers here as a ready-made
:class:`~repro.experiments.spec.ExperimentSpec`; users register their own
specs (objects or plain dicts) under new names.  ``REGISTRY.get`` resolves a
name and applies per-call overrides — spec fields *and* engine fields — so
``REGISTRY.get("table1", workload="mlp", scale="tiny", workers=2)`` is the
programmatic twin of ``python -m repro run table1 --workload mlp --scale tiny
--workers 2``.

Preset hyper-parameters (grids, λ, ``include_small_matrices``) mirror the
benchmark harness under ``benchmarks/`` so the CLI reproduces the same curves
the benches print.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Iterator, Mapping, Tuple, Union

from repro.exceptions import ExperimentError
from repro.experiments.runner import SweepEngine
from repro.experiments.spec import ExperimentSpec
from repro.hardware.sim import HardwareConfig

SpecLike = Union[ExperimentSpec, Mapping]


class ExperimentRegistry:
    """Mapping from experiment names to spec presets."""

    def __init__(self):
        self._entries: "OrderedDict[str, Tuple[ExperimentSpec, str]]" = OrderedDict()

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def register(
        self,
        name: str,
        spec: SpecLike,
        *,
        description: str = "",
        overwrite: bool = False,
    ) -> ExperimentSpec:
        """Register a spec (or spec dict) under ``name``.

        The stored spec's display name is forced to the registry key, so
        artifacts produced through the registry carry the preset name.
        """
        key = str(name).lower()
        if key in self._entries and not overwrite:
            raise ExperimentError(
                f"experiment {key!r} is already registered; pass overwrite=True to replace it"
            )
        if isinstance(spec, Mapping):
            spec = ExperimentSpec.from_dict(spec)
        if not isinstance(spec, ExperimentSpec):
            raise ExperimentError(
                f"expected an ExperimentSpec or mapping, got {type(spec).__name__}"
            )
        if spec.name != key:
            spec = replace(spec, name=key)
        self._entries[key] = (spec, description)
        return spec

    def get(self, name: str, **overrides) -> ExperimentSpec:
        """Resolve a registered spec, applying spec/engine field overrides."""
        key = str(name).lower()
        if key not in self._entries:
            raise ExperimentError(
                f"unknown experiment {name!r}; registered: {list(self._entries)}"
            )
        spec, _ = self._entries[key]
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return spec.with_updates(**overrides) if overrides else spec

    def describe(self, name: str) -> str:
        """The description string a preset registered with."""
        key = str(name).lower()
        if key not in self._entries:
            raise ExperimentError(
                f"unknown experiment {name!r}; registered: {list(self._entries)}"
            )
        return self._entries[key][1]

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def items(self) -> Iterator[Tuple[str, ExperimentSpec, str]]:
        """Iterate ``(name, spec, description)`` triples."""
        for name, (spec, description) in self._entries.items():
            yield name, spec, description


#: The process-wide registry the CLI and the job scheduler consult.
REGISTRY = ExperimentRegistry()

#: Device corners swept by the ``figure_hw`` / ``figure_hw_baseline`` presets:
#: a write-precision axis (2–8 bits), a programming-noise axis at 6 bits, and
#: one combined corner with faults and a 6-bit ADC.
HARDWARE_CORNERS = (
    HardwareConfig.ideal(),
    HardwareConfig(bits=2),
    HardwareConfig(bits=4),
    HardwareConfig(bits=6),
    HardwareConfig(bits=8),
    HardwareConfig(bits=6, program_noise=0.02),
    HardwareConfig(bits=6, program_noise=0.1),
    HardwareConfig(bits=6, program_noise=0.02, fault_rate=0.002, adc_bits=6),
)


def _register_paper_presets(registry: ExperimentRegistry) -> None:
    """The paper's deliverables (defaults mirror the benchmark harness)."""
    registry.register(
        "baseline",
        ExperimentSpec(kind="baseline", workload="mlp", scale="tiny"),
        description="Train the dense baseline and report its held-out accuracy",
    )
    registry.register(
        "table1",
        ExperimentSpec(kind="table1", workload="lenet", scale="small"),
        description="Table 1: Original / Direct LRA / Rank clipping accuracy and ranks",
    )
    registry.register(
        "table3",
        ExperimentSpec(
            kind="table3",
            workload="lenet",
            scale="small",
            strength=0.04,
            include_small_matrices=True,
        ),
        description="Table 3: MBC tile sizes and remaining routing wires per big matrix",
    )
    registry.register(
        "figure3",
        ExperimentSpec(kind="figure3", workload="lenet", scale="small"),
        description="Figure 3: rank ratio and accuracy versus iteration during clipping",
    )
    registry.register(
        "figure5",
        ExperimentSpec(
            kind="figure5",
            workload="lenet",
            scale="small",
            strength=0.04,
            include_small_matrices=True,
        ),
        description="Figure 5: deleted routing wires and accuracy during group deletion",
    )
    registry.register(
        "figure6",
        ExperimentSpec(
            kind="sweep",
            method="rank_clipping",
            workload="lenet",
            scale="small",
            grid=(0.01, 0.05, 0.15, 0.25),
        ),
        description="Figure 6: remaining ranks versus tolerable clipping error ε (LeNet)",
    )
    registry.register(
        "figure7",
        ExperimentSpec(
            kind="sweep",
            method="rank_clipping",
            workload="convnet",
            scale="small",
            grid=(0.02, 0.08, 0.20),
            # One process per ε point: the points' layer shapes diverge at
            # the first clip, so they cannot stack, but they train side by side.
            engine=SweepEngine(workers=3),
        ),
        description="Figure 7: crossbar area versus classification error over ε (ConvNet)",
    )
    registry.register(
        "figure8",
        ExperimentSpec(
            kind="sweep",
            method="group_deletion",
            workload="convnet",
            scale="small",
            grid=(0.01, 0.03, 0.06),
            include_small_matrices=True,
            # The three λ points share one architecture: train them stacked.
            engine=SweepEngine(mode="lockstep"),
        ),
        description="Figure 8: routing wires/area versus classification error over λ (ConvNet)",
    )
    registry.register(
        "headline",
        ExperimentSpec(kind="headline"),
        description="Abstract headline area numbers recomputed through the hardware model",
    )
    registry.register(
        "figure_hw",
        ExperimentSpec(
            kind="sweep",
            method="group_deletion",
            workload="lenet",
            scale="small",
            grid=(0.04,),
            include_small_matrices=True,
            hardware=HARDWARE_CORNERS,
        ),
        description=(
            "Hardware-fidelity accuracy of the Scissor-compressed LeNet across "
            "device precision / noise / fault corners (compare with figure_hw_baseline)"
        ),
    )
    registry.register(
        "figure_hw_baseline",
        ExperimentSpec(
            kind="baseline",
            workload="lenet",
            scale="small",
            hardware=HARDWARE_CORNERS,
        ),
        description=(
            "Dense LeNet baseline evaluated on the same simulated device corners "
            "as figure_hw"
        ),
    )


_register_paper_presets(REGISTRY)
