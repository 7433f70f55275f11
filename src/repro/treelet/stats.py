"""Treelet decomposition statistics.

Feed the Table 2 analog and the formation ablation: size histograms,
occupancy, and how treelets distribute over tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..bvh import NODE_SIZE_BYTES
from .formation import TreeletDecomposition


@dataclass(frozen=True)
class TreeletStats:
    """Summary statistics for one decomposition."""

    treelet_count: int
    max_nodes_per_treelet: int
    mean_nodes: float
    full_fraction: float  # treelets at exactly the size cap
    singleton_fraction: float  # treelets of one node
    mean_occupancy: float
    mean_root_depth: float
    mean_depth_span: float  # levels covered per treelet


def compute_treelet_stats(decomposition: TreeletDecomposition) -> TreeletStats:
    depth = decomposition.bvh.arrays.depth
    cap = decomposition.max_nodes_per_treelet
    counts = decomposition.sizes
    starts = decomposition.offsets[:-1]
    member_depths = depth[decomposition.members]
    spans = (np.maximum.reduceat(member_depths, starts)
             - np.minimum.reduceat(member_depths, starts) + 1)
    n = len(counts)
    total = int(counts.sum())
    return TreeletStats(
        treelet_count=n,
        max_nodes_per_treelet=cap,
        mean_nodes=total / n,
        full_fraction=int((counts == cap).sum()) / n,
        singleton_fraction=int((counts == 1).sum()) / n,
        mean_occupancy=total / (n * cap),
        mean_root_depth=int(depth[decomposition.roots].sum()) / n,
        mean_depth_span=int(spans.sum()) / n,
    )


def size_histogram(decomposition: TreeletDecomposition) -> Dict[int, int]:
    """Treelet node-count -> number of treelets with that count."""
    sizes, counts = np.unique(decomposition.sizes, return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


def bytes_wasted_by_slotting(decomposition: TreeletDecomposition) -> int:
    """Padding bytes the repacked slot layout leaves unused.

    Every treelet occupies a full ``max_bytes`` slot regardless of
    occupancy; partially-filled treelets waste the tail (the effect
    behind Section 6.4.1's partition camping).
    """
    used = len(decomposition.members) * NODE_SIZE_BYTES
    total = decomposition.treelet_count * decomposition.max_bytes
    return total - used
