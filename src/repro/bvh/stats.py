"""BVH tree statistics (the inputs to Table 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .node import FlatBVH


@dataclass(frozen=True)
class TreeStats:
    """Summary statistics for one BVH tree."""

    name: str
    node_count: int
    leaf_count: int
    triangle_count: int
    depth: int
    size_bytes: int
    avg_leaf_primitives: float
    avg_internal_fanout: float

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)


def compute_tree_stats(bvh: FlatBVH) -> TreeStats:
    """:class:`TreeStats` for a flattened BVH, from its columns.

    Computed once per tree and memoized on the instance (a pickle of
    the tree leaves it behind)."""
    cached = bvh.__dict__.get("_tree_stats")
    if cached is not None:
        return cached
    arrays = bvh.arrays
    leaves = int(arrays.is_leaf.sum())
    internals = len(bvh) - leaves
    prims, fanout = int(arrays.prim_counts.sum()), int(arrays.child_counts.sum())
    stats = TreeStats(
        name=bvh.name,
        node_count=len(bvh),
        leaf_count=leaves,
        triangle_count=len(arrays.triangles),
        depth=bvh.depth(),
        size_bytes=bvh.node_bytes() + bvh.primitive_bytes(),
        avg_leaf_primitives=prims / leaves if leaves else 0.0,
        avg_internal_fanout=fanout / internals if internals else 0.0,
    )
    bvh.__dict__["_tree_stats"] = stats
    return stats


def nodes_per_level(bvh: FlatBVH) -> Dict[int, int]:
    """Histogram of node counts by depth (root depth = 0)."""
    return dict(enumerate(np.bincount(bvh.arrays.depth).tolist()))


def sah_cost(
    bvh: FlatBVH,
    traversal_cost: float = 1.0,
    intersection_cost: float = 1.5,
) -> float:
    """Expected traversal cost of the tree under the surface-area
    heuristic: each node is visited with probability proportional to the
    ratio of its surface area to the root's, paying a traversal cost for
    internal nodes and an intersection cost per leaf primitive.

    Lower is better; used to compare builders (SAH vs median split) and
    is the quantity the binned build greedily minimizes per split.
    """
    root_area = bvh.root.bounds.surface_area()
    if root_area <= 0.0:
        return 0.0
    total = 0.0
    for node in bvh.nodes:
        probability = node.bounds.surface_area() / root_area
        if node.is_leaf:
            total += probability * intersection_cost * len(node.primitive_ids)
        else:
            total += probability * traversal_cost
    return total
