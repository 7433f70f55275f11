"""Memory layout: mapping node ids to byte addresses.

The timing model operates on raw byte addresses; a :class:`NodeLayout`
assigns each BVH node its 64-byte slot.  The baseline layout mirrors
what a standard builder emits (depth-first order).  The treelet-repacked
layout of Section 4.4 lives in :mod:`repro.treelet.repack` and produces the
same interface.

Primitive (triangle) data is placed in a separate region after the node
region so leaf intersection tests generate distinct demand traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .node import NODE_SIZE_BYTES, PRIMITIVE_SIZE_BYTES, FlatBVH

#: All BVH data is placed at or above this base (a recognizably non-zero
#: base catches accidental id/address confusion in tests).
BVH_BASE_ADDRESS = 0x1000_0000


@dataclass(eq=False)
class NodeLayout:
    """Byte addresses for every node (and primitive) of one BVH.

    Attributes:
        node_address: int64 column, node id -> byte address of its
            64-byte slot.
        primitive_base: start of the triangle data region.
        total_node_bytes: extent of the node region including any padding
            (strided treelet layouts leave gaps).
        node_treelet: node id -> treelet id; a treelet-aware layout
            holds its decomposition's own column, any other -1s.
    """

    node_address: np.ndarray
    primitive_base: int
    total_node_bytes: int
    description: str = "dfs"
    node_treelet: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.node_treelet is None:
            self.node_treelet = np.full(len(self.node_address), -1, np.int32)

    def address_of(self, node_id: int) -> int:
        return int(self.node_address[node_id])

    def primitive_address(self, primitive_id: int) -> int:
        return self.primitive_base + primitive_id * PRIMITIVE_SIZE_BYTES

    def treelet_of(self, node_id: int) -> int:
        """Treelet id of a node; -1 when the layout has no treelets."""
        return int(self.node_treelet[node_id])


def dfs_layout(bvh: FlatBVH, base_address: int = BVH_BASE_ADDRESS) -> NodeLayout:
    """Baseline layout: nodes packed contiguously in depth-first order.

    Depth-first order is what a typical top-down builder writes out and is
    the layout the paper's baseline RT unit traverses.
    """
    children = bvh.child_lists()
    order: List[int] = []
    stack = [bvh.ROOT_ID]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        # Reversed so the first child is visited (and laid out) first.
        stack.extend(reversed(children[node_id]))
    if len(order) != len(bvh):
        raise ValueError("BVH contains unreachable nodes")
    node_address = np.empty(len(order), dtype=np.int64)
    node_address[order] = base_address + NODE_SIZE_BYTES * np.arange(
        len(order), dtype=np.int64
    )
    total = len(order) * NODE_SIZE_BYTES
    return NodeLayout(
        node_address=node_address,
        primitive_base=base_address + total,
        total_node_bytes=total,
        description="dfs",
    )
