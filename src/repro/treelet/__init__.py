"""Treelet formation, repacked memory layout, and mapping-table option."""

from .formation import (
    DEFAULT_TREELET_BYTES,
    FORMATION_STRATEGIES,
    TreeletDecomposition,
    form_treelets,
)
from .mapping import MAPPING_ENTRY_BYTES, MappingTable, build_mapping_table
from .repack import treelet_layout
from .stats import (
    TreeletStats,
    bytes_wasted_by_slotting,
    compute_treelet_stats,
    size_histogram,
)

__all__ = [
    "DEFAULT_TREELET_BYTES",
    "FORMATION_STRATEGIES",
    "MAPPING_ENTRY_BYTES",
    "MappingTable",
    "TreeletDecomposition",
    "TreeletStats",
    "bytes_wasted_by_slotting",
    "compute_treelet_stats",
    "size_histogram",
    "build_mapping_table",
    "form_treelets",
    "treelet_layout",
]
