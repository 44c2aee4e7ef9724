"""Memristor-crossbar hardware model: technology, tiling, area, routing and
device-level simulation (:mod:`repro.hardware.sim`)."""

from repro.hardware.compaction import (
    CompactedCrossbar,
    CompactionReport,
    compact_matrix,
    compact_network,
    total_compacted_area_fraction,
)
from repro.hardware.area import (
    area_reduction_rank_bound,
    dense_layer_area,
    factorized_layer_area,
    layer_area_fraction,
    matrix_crossbar_area,
    network_area_fraction,
    per_layer_area_fractions,
)
from repro.hardware.crossbar import Crossbar, CrossbarInstance
from repro.hardware.library import PAPER_LIBRARY, CrossbarLibrary, largest_divisor_at_most
from repro.hardware.mapper import CrossbarMatrix, NetworkMapper, extract_crossbar_matrices
from repro.hardware.report import (
    LayerHardwareReport,
    MatrixHardwareReport,
    NetworkHardwareReport,
)
from repro.hardware.routing import (
    RoutingAnalysisCache,
    RoutingReport,
    analyze_routing,
    count_remaining_wires,
    live_weight_mask,
    mask_fingerprint,
    routing_area,
    routing_area_from_lengths,
)
from repro.hardware.sim import (
    HardwareConfig,
    ProgrammedMatrix,
    ProgrammedNetwork,
    program_matrix,
    program_network,
    simulate_evaluate,
    simulate_mvm,
    simulate_predict,
)
from repro.hardware.technology import PAPER_TECHNOLOGY, TechnologyParameters
from repro.hardware.tiling import TilingPlan, plan_for_matrix, plan_tiling

__all__ = [
    "TechnologyParameters",
    "PAPER_TECHNOLOGY",
    "Crossbar",
    "CrossbarInstance",
    "CrossbarLibrary",
    "PAPER_LIBRARY",
    "largest_divisor_at_most",
    "TilingPlan",
    "plan_tiling",
    "plan_for_matrix",
    "RoutingReport",
    "RoutingAnalysisCache",
    "analyze_routing",
    "count_remaining_wires",
    "live_weight_mask",
    "mask_fingerprint",
    "routing_area",
    "routing_area_from_lengths",
    "matrix_crossbar_area",
    "dense_layer_area",
    "factorized_layer_area",
    "layer_area_fraction",
    "network_area_fraction",
    "per_layer_area_fractions",
    "area_reduction_rank_bound",
    "CrossbarMatrix",
    "NetworkMapper",
    "extract_crossbar_matrices",
    "MatrixHardwareReport",
    "LayerHardwareReport",
    "NetworkHardwareReport",
    "HardwareConfig",
    "ProgrammedMatrix",
    "ProgrammedNetwork",
    "program_matrix",
    "program_network",
    "simulate_evaluate",
    "simulate_mvm",
    "simulate_predict",
    "CompactedCrossbar",
    "CompactionReport",
    "compact_matrix",
    "compact_network",
    "total_compacted_area_fraction",
]
