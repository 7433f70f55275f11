"""Treelet-based BVH memory repacking (Sections 4.4 and 6.4.1).

Repacking places all nodes of a treelet contiguously in a fixed-size slot
whose start is aligned to the maximum treelet size.  With that layout the
prefetcher only needs the upper bits of a node's address to know its
treelet, and a treelet prefetch is a short burst of contiguous cache
lines.

Section 6.4.1 adds an optional constant stride between treelet roots:
with 512-byte treelets and a 256-byte DRAM partition stride, packing
roots 512 bytes apart camps traffic on half the DRAM partitions (most
treelets are not fully occupied, so the tails of slots see little
traffic).  Spacing roots 768 bytes apart spreads the root-heavy traffic
across all partitions.
"""

from __future__ import annotations

import numpy as np

from ..bvh import NODE_SIZE_BYTES
from ..bvh.layout import BVH_BASE_ADDRESS, NodeLayout
from .formation import TreeletDecomposition


def treelet_layout(
    decomposition: TreeletDecomposition,
    base_address: int = BVH_BASE_ADDRESS,
    stride_bytes: int = 0,
) -> NodeLayout:
    """Lay the BVH out treelet-by-treelet.

    Each treelet occupies ``max_bytes`` starting at a slot boundary, with
    ``stride_bytes`` of extra spacing between consecutive slots (the
    Section 6.4.1 load-balancing knob).  Node order within a slot is the
    breadth-first formation order, so upper-level nodes occupy the front
    of the slot.
    """
    if stride_bytes < 0:
        raise ValueError("stride_bytes must be non-negative")
    if base_address % decomposition.max_bytes != 0:
        raise ValueError("base address must be treelet-size aligned")
    slot_bytes = decomposition.max_bytes + stride_bytes
    # A member's address is its treelet's slot base plus its rank in
    # the treelet, in formation order.
    sizes = decomposition.sizes
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rank = np.arange(len(owner), dtype=np.int64) - np.repeat(
        decomposition.offsets[:-1], sizes
    )
    node_address = np.empty(len(owner), dtype=np.int64)
    node_address[decomposition.members] = (
        base_address + owner * slot_bytes + rank * NODE_SIZE_BYTES
    )
    total = decomposition.treelet_count * slot_bytes
    label = "treelet"
    if stride_bytes:
        label = f"treelet+stride{stride_bytes}"
    return NodeLayout(
        node_address=node_address,
        primitive_base=base_address + total,
        total_node_bytes=total,
        description=label,
        node_treelet=decomposition.node_treelet,
    )
