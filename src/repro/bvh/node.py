"""Flattened BVH node representation.

The paper's RT unit (Vulkan-Sim / Embree style) works on wide BVH nodes that
occupy exactly 64 bytes each and hold up to six children (Figure 6).  Two
spare bytes in that layout carry one "same treelet as parent" bit per child,
which is how the traversal algorithm decides between the two stacks without
any extra memory traffic.

This module defines the in-memory (simulator) representation: a flat array
of :class:`FlatNode` indexed by node id, backed by the tree's column set
(:mod:`repro.bvh.soa`).  Byte-level addresses are assigned
separately by a :class:`~repro.bvh.layout.NodeLayout` so the same tree can
be laid out depth-first (baseline) or treelet-packed (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import AABB, Triangle
from .soa import BVHArrays, pack_bvh_arrays

#: Size of one BVH node in bytes (Figure 6: fixed 64-byte layout).
NODE_SIZE_BYTES = 64

#: Maximum branching factor (6-wide BVH, Figure 6).
MAX_CHILDREN = 6

#: Bytes of triangle data fetched per ray/primitive test.  Embree's
#: compressed-leaf format stores roughly this much per triangle.
PRIMITIVE_SIZE_BYTES = 48


@dataclass
class FlatNode:
    """One node of a flattened wide BVH.

    Internal nodes have ``child_ids`` and no ``primitive_ids``; leaves have
    the opposite.  ``depth`` is the root-distance (root = 0).
    """

    node_id: int
    bounds: AABB
    child_ids: Tuple[int, ...] = ()
    primitive_ids: Tuple[int, ...] = ()
    parent_id: int = -1
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids

    @property
    def fanout(self) -> int:
        return len(self.child_ids)

    def __post_init__(self) -> None:
        if self.child_ids and self.primitive_ids:
            raise ValueError("a node cannot be both internal and leaf")
        if len(self.child_ids) > MAX_CHILDREN:
            raise ValueError(
                f"node {self.node_id} has {len(self.child_ids)} children; "
                f"max is {MAX_CHILDREN}"
            )


class FlatBVH:
    """A flattened wide BVH over a triangle list.

    ``nodes[0]`` is always the root.  The tree's values live in its
    column set :attr:`arrays` (:class:`~repro.bvh.soa.BVHArrays`),
    packed once at construction.  A pickle holds the columns only, and
    a loaded tree builds its :class:`FlatNode` and :class:`Triangle`
    objects on first access of :attr:`nodes` or :attr:`triangles`.  The
    structure is append-only after construction; treelet assignment and
    memory layout live in separate objects keyed by node id.
    """

    ROOT_ID = 0

    def __init__(
        self,
        nodes: Sequence[FlatNode],
        triangles: Sequence[Triangle],
        name: str = "bvh",
    ) -> None:
        if not nodes:
            raise ValueError("a BVH must have at least a root node")
        for index, node in enumerate(nodes):
            if node.node_id != index:
                raise ValueError("node_id must equal list index")
        self.name = name
        self._nodes: Optional[List[FlatNode]] = list(nodes)
        self._triangles: Optional[List[Triangle]] = list(triangles)
        self.arrays = pack_bvh_arrays(self._nodes, self._triangles)

    def __getstate__(self) -> dict:
        # Derived data memoized on the instance (the packet-traversal
        # statics, the tree statistics, the replay's primitive lines) and
        # the object form stay behind.
        return {"name": self.name, **self.arrays.columns()}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._nodes = self._triangles = None
        self.arrays = BVHArrays.from_columns(state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatBVH):
            return NotImplemented
        theirs = other.arrays.columns()
        return self.name == other.name and all(
            np.array_equal(column, theirs[key])
            for key, column in self.arrays.columns().items()
        )

    def __len__(self) -> int:
        return self.arrays.node_count

    @property
    def nodes(self) -> List[FlatNode]:
        if self._nodes is None:
            a = self.arrays
            kids, prims = a.child_ids.tolist(), a.prim_ids.tolist()
            rows = zip(*(column.tolist() for column in (
                a.node_lo, a.node_hi, a.child_offsets, a.child_counts,
                a.prim_offsets, a.prim_counts, a.parent, a.depth,
            )))
            self._nodes = [
                FlatNode(i, AABB(tuple(lo), tuple(hi)),
                         tuple(kids[kid:kid + n_kids]),
                         tuple(prims[prim:prim + n_prims]), parent, depth)
                for i, (lo, hi, kid, n_kids, prim, n_prims, parent, depth)
                in enumerate(rows)
            ]
        return self._nodes

    @property
    def triangles(self) -> List[Triangle]:
        if self._triangles is None:
            self._triangles = self.arrays.triangles.triangles()
        return self._triangles

    def node(self, node_id: int) -> FlatNode:
        return self.nodes[node_id]

    @property
    def root(self) -> FlatNode:
        return self.nodes[self.ROOT_ID]

    def depth(self) -> int:
        """Tree depth counted in levels (a lone root has depth 1)."""
        return 1 + int(self.arrays.depth.max())

    def leaf_ids(self) -> List[int]:
        return np.flatnonzero(self.arrays.is_leaf).tolist()

    def internal_ids(self) -> List[int]:
        return np.flatnonzero(~self.arrays.is_leaf).tolist()

    def node_bytes(self) -> int:
        """Total bytes of node data (the 'Tree Size' of Table 2)."""
        return len(self) * NODE_SIZE_BYTES

    def primitive_bytes(self) -> int:
        return len(self.arrays.triangles) * PRIMITIVE_SIZE_BYTES

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Invariants checked:
          * every non-root node has exactly one parent and is reachable;
          * parent/child links agree; depths increase by one along edges;
          * every triangle is referenced by exactly one leaf;
          * every child's bounds are contained in its parent's bounds.
        """
        seen_children = set()
        seen_primitives: dict = {}
        for node in self.nodes:
            for child_id in node.child_ids:
                if child_id in seen_children:
                    raise ValueError(f"node {child_id} has two parents")
                seen_children.add(child_id)
                child = self.nodes[child_id]
                if child.parent_id != node.node_id:
                    raise ValueError(f"bad parent link at node {child_id}")
                if child.depth != node.depth + 1:
                    raise ValueError(f"bad depth at node {child_id}")
                if not node.bounds.expanded(1e-9).contains_box(child.bounds):
                    raise ValueError(
                        f"child {child_id} bounds escape parent {node.node_id}"
                    )
            for prim_id in node.primitive_ids:
                if prim_id in seen_primitives:
                    raise ValueError(f"primitive {prim_id} in two leaves")
                seen_primitives[prim_id] = node.node_id
        if len(seen_children) != len(self.nodes) - 1:
            raise ValueError("unreachable nodes present")
        expected = {tri.primitive_id for tri in self.triangles}
        if set(seen_primitives) != expected:
            raise ValueError("leaves do not cover the triangle set exactly")
