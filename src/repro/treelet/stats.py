"""Treelet decomposition statistics.

Feed the Table 2 analog and the formation ablation: size histograms,
occupancy, and how treelets distribute over tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

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
    depth = decomposition.bvh.arrays.depth.tolist()
    cap = decomposition.max_nodes_per_treelet
    counts = [treelet.node_count for treelet in decomposition.treelets]
    root_depths = []
    spans = []
    for treelet in decomposition.treelets:
        depths = [depth[n] for n in treelet.node_ids]
        root_depths.append(depth[treelet.root_id])
        spans.append(max(depths) - min(depths) + 1)
    n = len(counts)
    return TreeletStats(
        treelet_count=n,
        max_nodes_per_treelet=cap,
        mean_nodes=sum(counts) / n,
        full_fraction=sum(1 for c in counts if c == cap) / n,
        singleton_fraction=sum(1 for c in counts if c == 1) / n,
        mean_occupancy=sum(counts) / (n * cap),
        mean_root_depth=sum(root_depths) / n,
        mean_depth_span=sum(spans) / n,
    )


def size_histogram(decomposition: TreeletDecomposition) -> Dict[int, int]:
    """Treelet node-count -> number of treelets with that count."""
    histogram: Dict[int, int] = {}
    for treelet in decomposition.treelets:
        histogram[treelet.node_count] = (
            histogram.get(treelet.node_count, 0) + 1
        )
    return histogram


def bytes_wasted_by_slotting(decomposition: TreeletDecomposition) -> int:
    """Padding bytes the repacked slot layout leaves unused.

    Every treelet occupies a full ``max_bytes`` slot regardless of
    occupancy; partially-filled treelets waste the tail (the effect
    behind Section 6.4.1's partition camping).
    """
    used = sum(t.node_count for t in decomposition.treelets) * NODE_SIZE_BYTES
    total = decomposition.treelet_count * decomposition.max_bytes
    return total - used
