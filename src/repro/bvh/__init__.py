"""BVH substrate: builders, wide nodes, layouts, statistics."""

from .builder import (
    BinaryTree,
    BuildConfig,
    INTERSECTION_COST,
    SAH_BIN_COUNT,
    TRAVERSAL_COST,
    build_binary_bvh,
)
from .layout import BVH_BASE_ADDRESS, NodeLayout, dfs_layout
from .node import (
    MAX_CHILDREN,
    NODE_SIZE_BYTES,
    PRIMITIVE_SIZE_BYTES,
    FlatBVH,
    FlatNode,
)
from .soa import BVHArrays
from .stats import TreeStats, compute_tree_stats, nodes_per_level, sah_cost
from .wide import build_wide_bvh, collapse_to_wide

__all__ = [
    "BVHArrays",
    "BVH_BASE_ADDRESS",
    "BinaryTree",
    "BuildConfig",
    "FlatBVH",
    "FlatNode",
    "INTERSECTION_COST",
    "MAX_CHILDREN",
    "NODE_SIZE_BYTES",
    "NodeLayout",
    "PRIMITIVE_SIZE_BYTES",
    "SAH_BIN_COUNT",
    "TRAVERSAL_COST",
    "TreeStats",
    "build_binary_bvh",
    "build_wide_bvh",
    "collapse_to_wide",
    "compute_tree_stats",
    "dfs_layout",
    "nodes_per_level",
    "sah_cost",
]
