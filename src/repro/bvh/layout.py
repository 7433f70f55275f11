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

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .node import NODE_SIZE_BYTES, PRIMITIVE_SIZE_BYTES, FlatBVH

#: All BVH data is placed at or above this base (a recognizably non-zero
#: base catches accidental id/address confusion in tests).
BVH_BASE_ADDRESS = 0x1000_0000


@dataclass
class NodeLayout:
    """Byte addresses for every node (and primitive) of one BVH.

    Attributes:
        node_address: node id -> byte address of its 64-byte slot.
        primitive_base: start of the triangle data region.
        total_node_bytes: extent of the node region including any padding
            (strided treelet layouts leave gaps).
    """

    node_address: Dict[int, int]
    primitive_base: int
    total_node_bytes: int
    description: str = "dfs"
    #: node id -> treelet id, filled in by treelet-aware layouts.
    node_treelet: Dict[int, int] = field(default_factory=dict)

    def address_of(self, node_id: int) -> int:
        return self.node_address[node_id]

    def primitive_address(self, primitive_id: int) -> int:
        return self.primitive_base + primitive_id * PRIMITIVE_SIZE_BYTES

    def treelet_of(self, node_id: int) -> int:
        """Treelet id of a node; -1 when the layout has no treelets."""
        return self.node_treelet.get(node_id, -1)

    def lookup_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(address_table, treelet_table)`` indexed by node id.

        Node ids from the flattened BVH are dense (``0 .. n-1``), so the
        dict lookups above can be replaced by a single vectorized gather
        when converting whole traces to per-ray address/treelet lists.
        Treelet-less layouts fill the treelet table with -1, matching
        :meth:`treelet_of`.  The tables are built once per layout and
        cached (layouts are immutable after construction).
        """
        cached = self.__dict__.get("_lookup_arrays")
        if cached is not None:
            return cached
        size = max(self.node_address) + 1 if self.node_address else 0
        addresses = np.zeros(size, dtype=np.int64)
        treelets = np.full(size, -1, dtype=np.int64)
        for table, mapping in ((addresses, self.node_address),
                               (treelets, self.node_treelet)):
            table[np.fromiter(mapping, np.intp, len(mapping))] = np.fromiter(
                mapping.values(), np.int64, len(mapping))
        self.__dict__["_lookup_arrays"] = (addresses, treelets)
        return addresses, treelets


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
    node_address = {
        node_id: base_address + slot * NODE_SIZE_BYTES
        for slot, node_id in enumerate(order)
    }
    total = len(order) * NODE_SIZE_BYTES
    return NodeLayout(
        node_address=node_address,
        primitive_base=base_address + total,
        total_node_bytes=total,
        description="dfs",
    )
