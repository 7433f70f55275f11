"""Flattened BVH node representation.

The paper's RT unit (Vulkan-Sim / Embree style) works on wide BVH nodes that
occupy exactly 64 bytes each and hold up to six children (Figure 6).  Two
spare bytes in that layout carry one "same treelet as parent" bit per child,
which is how the traversal algorithm decides between the two stacks without
any extra memory traffic.

This module defines the in-memory (simulator) representation: the
tree's column set (:mod:`repro.bvh.soa`) indexed by node id, with
:class:`FlatNode` objects built from it on request.  Byte-level
addresses are assigned separately by a
:class:`~repro.bvh.layout.NodeLayout` so the same tree can be laid out
depth-first (baseline) or treelet-packed (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import AABB, Triangle
from .soa import BVHArrays

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

    Node 0 is always the root.  The tree is its column set
    :attr:`arrays` (:class:`~repro.bvh.soa.BVHArrays`), which the
    builder writes and a pickle holds.  The :class:`FlatNode` and
    :class:`Triangle` objects are built on first access of :attr:`nodes`
    or :attr:`triangles`; traversal, treelet formation and layout read
    the columns and the child lists instead.  The structure is
    immutable after construction; treelet assignment and memory layout
    live in separate objects keyed by node id.
    """

    ROOT_ID = 0

    def __init__(self, arrays: BVHArrays, name: str = "bvh") -> None:
        if arrays.node_count == 0:
            raise ValueError("a BVH must have at least a root node")
        self.name = name
        self.arrays = arrays
        self._nodes: Optional[List[FlatNode]] = None
        self._triangles: Optional[List[Triangle]] = None

    def __getstate__(self) -> dict:
        # Derived data memoized on the instance (the traversal statics,
        # the tree statistics, the replay's primitive lines, the child
        # lists) and the object form stay behind.
        return {"name": self.name, **self.arrays.columns()}

    def __setstate__(self, state: dict) -> None:
        self.__init__(BVHArrays.from_columns(state), state["name"])

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

    def child_lists(self) -> List[List[int]]:
        """Per node, its child ids: the child CSR as int lists, derived
        once per tree."""
        cached = self.__dict__.get("_child_lists")
        if cached is None:
            a = self.arrays
            flat = a.child_ids.tolist()
            cached = self.__dict__["_child_lists"] = [
                flat[start:start + count]
                for start, count in zip(
                    a.child_offsets.tolist(), a.child_counts.tolist()
                )
            ]
        return cached

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
        """Check structural invariants on the columns; raises
        ``ValueError`` on violation.

        Invariants checked:
          * every non-root node is exactly one node's child;
          * parent links agree; depths increase by one along edges;
          * no node is both internal and a leaf, or has more than
            ``MAX_CHILDREN`` children;
          * every triangle is referenced by exactly one leaf;
          * every child's bounds are contained in its parent's bounds.
        """
        a = self.arrays
        kids = a.child_ids
        owner = np.repeat(np.arange(len(self)), a.child_counts)
        if sorted(kids.tolist()) != list(range(1, len(self))):
            raise ValueError("a node has two parents or none")
        if a.parent[0] != -1 or (a.parent[kids] != owner).any():
            raise ValueError("bad parent link")
        if (a.depth[kids] != a.depth[owner] + 1).any():
            raise ValueError("bad depth")
        if ((a.child_counts > 0) & (a.prim_counts > 0)).any():
            raise ValueError("a node cannot be both internal and leaf")
        if (a.child_counts > MAX_CHILDREN).any():
            raise ValueError(f"a node has more than {MAX_CHILDREN} children")
        # ``AABB.expanded(1e-9).contains_box`` per edge; an empty child
        # is contained by any parent.
        lo, hi = a.node_lo[kids], a.node_hi[kids]
        inside = (a.node_lo[owner] - 1e-9 <= lo) & (
            hi <= a.node_hi[owner] + 1e-9
        )
        if not (inside.all(axis=1) | (lo > hi).any(axis=1)).all():
            raise ValueError("a child's bounds escape its parent's")
        if sorted(a.prim_ids.tolist()) != sorted(
            a.triangles.primitive_ids.tolist()
        ):
            raise ValueError("leaves do not cover the triangle set exactly")
