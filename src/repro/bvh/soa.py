"""The column set of a :class:`~repro.bvh.node.FlatBVH`.

A tree's values live in flat numpy arrays: node bounds, the child and
primitive CSR tables, parents and depths, and the triangles' raw
vertices and ids.  The same arrays serve every reader: the vectorized
traversal backend (:mod:`repro.traversal.vectorized`) tests whole ray
packets against gathered child bounds and leaf primitives; the layout,
the tree statistics and the replay's primitive lines read the
topology; and the artifact cache pickles them as the tree's whole
state, so a loaded tree is its columns and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..geometry import TriangleArrays

#: The node columns a pickle holds (``is_leaf`` and the triangle edges
#: are derived on load).
NODE_COLUMNS = (
    "node_lo", "node_hi", "child_offsets", "child_counts", "child_ids",
    "prim_offsets", "prim_counts", "prim_ids", "parent", "depth",
)
#: The triangle columns a pickle holds.
TRIANGLE_COLUMNS = ("v0", "v1", "v2", "primitive_ids")


@dataclass(frozen=True, eq=False)
class BVHArrays:
    """Packed per-node and per-triangle arrays for one BVH.

    Node arrays are indexed by ``node_id``; child and primitive ids are
    flattened CSR-style (``ids[offsets[n]:offsets[n] + counts[n]]``).
    Triangle arrays are indexed by the position scalar traversal uses
    for ``bvh.triangles[prim_id]``.
    """

    node_lo: np.ndarray  # [num_nodes, 3] float64
    node_hi: np.ndarray  # [num_nodes, 3] float64
    child_offsets: np.ndarray  # [num_nodes] int64
    child_counts: np.ndarray  # [num_nodes] int64
    child_ids: np.ndarray  # [total_children] int64
    prim_offsets: np.ndarray  # [num_nodes] int64
    prim_counts: np.ndarray  # [num_nodes] int64
    prim_ids: np.ndarray  # [total_leaf_prims] int64
    parent: np.ndarray  # [num_nodes] int64 (-1 at the root)
    depth: np.ndarray  # [num_nodes] int64 (0 at the root)
    triangles: TriangleArrays
    is_leaf: np.ndarray = field(init=False, repr=False)  # [num_nodes] bool

    def __post_init__(self) -> None:
        rows = {len(getattr(self, name)) for name in NODE_COLUMNS
                if name not in ("child_ids", "prim_ids")}
        if len(rows) != 1:
            raise ValueError("node columns must have one row per node")
        object.__setattr__(self, "is_leaf", self.child_counts == 0)

    @property
    def node_count(self) -> int:
        return self.node_lo.shape[0]

    def columns(self) -> Dict[str, np.ndarray]:
        """Every stored column by name: what a pickle of the tree holds."""
        columns = {name: getattr(self, name) for name in NODE_COLUMNS}
        for name in TRIANGLE_COLUMNS:
            columns[name] = getattr(self.triangles, name)
        return columns

    @classmethod
    def from_columns(cls, columns: Dict[str, np.ndarray]) -> "BVHArrays":
        return cls(
            **{name: columns[name] for name in NODE_COLUMNS},
            triangles=TriangleArrays(
                **{name: columns[name] for name in TRIANGLE_COLUMNS}
            ),
        )

    def leaf_primitives(self, node_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(counts, prim_ids)``: per node its primitive count, and all
        their primitive ids laid end to end in node order."""
        counts = self.prim_counts[node_ids]
        return counts, self.prim_ids[runs(self.prim_offsets[node_ids], counts)]


def runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[k], starts[k] + 1, ...`` (``lengths[k]`` values) for
    every ``k``, concatenated."""
    ends = np.cumsum(lengths)
    offsets = np.repeat(starts - ends + lengths, lengths)
    return offsets + np.arange(len(offsets))


def surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:meth:`AABB.surface_area <repro.geometry.AABB.surface_area>` of
    every ``[n, 3]`` box row, with its operations in its order (so each
    value equals the object's bit for bit); empty boxes have area 0."""
    ext = hi - lo
    area = 2.0 * (
        ext[:, 0] * ext[:, 1] + ext[:, 1] * ext[:, 2] + ext[:, 2] * ext[:, 0]
    )
    return np.where((lo > hi).any(axis=1), 0.0, area)
