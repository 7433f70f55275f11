"""Collapse a binary BVH into the 6-wide flat BVH used by the RT unit.

Embree-style wide BVHs are built by collapsing a binary tree: starting from
a binary node, the child list is grown by repeatedly expanding the internal
child with the largest surface area until the branching factor is reached.
Wider nodes mean fewer node fetches per ray, which matches the 64-byte
6-wide node format the paper evaluates (Figure 6).

The collapse reads the binary tree's columns: a Python loop over int
lists picks each wide node's children, and the wide tree's columns are
gathered from the binary ones in one numpy pass at the end.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry import TriangleArrays
from .builder import (
    BinaryTree,
    BuildConfig,
    as_triangle_arrays,
    build_binary_bvh,
)
from .node import MAX_CHILDREN, FlatBVH
from .soa import BVHArrays, runs, surface_areas


def collapse_to_wide(
    tree: BinaryTree,
    triangles: TriangleArrays,
    branching_factor: int = MAX_CHILDREN,
    name: str = "bvh",
) -> FlatBVH:
    """Collapse ``tree`` into a :class:`FlatBVH` with the given fan-out.

    Node ids are assigned in breadth-first order, so lower ids sit at upper
    tree levels — the property the PARTIAL prefetch heuristic relies on
    ("nodes in the front of the treelet are the upper level nodes").
    """
    if branching_factor < 2 or branching_factor > MAX_CHILDREN:
        raise ValueError(
            f"branching factor must be in [2, {MAX_CHILDREN}]"
        )
    left = tree.left.tolist()
    area = surface_areas(tree.lo, tree.hi).tolist()
    # ``source`` is the queue of binary node ids: every entry becomes
    # exactly one wide node, and nodes are numbered in pop order.  So
    # the child ids, in node order, are 1, 2, ... and a node's parent
    # is the node that was popped when it was queued.
    source = [0]
    child_counts: List[int] = []
    head = 0
    while head < len(source):
        first = left[source[head]]
        if first < 0:
            child_counts.append(0)
        else:
            children = _collect_wide_children(
                first, left, area, branching_factor
            )
            child_counts.append(len(children))
            source.extend(children)
        head += 1
    n = len(source)
    rows = np.array(source, dtype=np.int64)
    counts = np.array(child_counts, dtype=np.int64)
    # Breadth-first order puts each depth in one run of ids: the
    # children of run [start, end) are the next run.
    depth = np.zeros(n, dtype=np.int64)
    start, end, level = 0, 1, 0
    while start < n:
        depth[start:end] = level
        start, end = end, end + int(counts[start:end].sum())
        level += 1
    prim_counts = tree.prim_counts[rows]
    return FlatBVH(BVHArrays(
        node_lo=tree.lo[rows],
        node_hi=tree.hi[rows],
        child_offsets=np.cumsum(counts) - counts,
        child_counts=counts,
        child_ids=np.arange(1, n, dtype=np.int64),
        prim_offsets=np.cumsum(prim_counts) - prim_counts,
        prim_counts=prim_counts,
        prim_ids=tree.prim_ids[runs(tree.prim_offsets[rows], prim_counts)],
        parent=np.concatenate(([-1], np.repeat(np.arange(n), counts))),
        depth=depth,
        triangles=triangles,
    ), name)


def _collect_wide_children(
    first: int, left: List[int], area: List[float], branching_factor: int
) -> List[int]:
    """Grow the child list of an inner binary node whose children are
    ``first`` and ``first + 1`` by expanding the largest (first on a
    tie) internal child."""
    children = [first, first + 1]
    while len(children) < branching_factor:
        expandable: Optional[int] = None
        best_area = -1.0
        for index, child in enumerate(children):
            if left[child] < 0:
                continue
            if area[child] > best_area:
                best_area = area[child]
                expandable = index
        if expandable is None:
            break
        grandchild = left[children.pop(expandable)]
        children.append(grandchild)
        children.append(grandchild + 1)
    return children


def build_wide_bvh(
    triangles,
    config: Optional[BuildConfig] = None,
    branching_factor: int = MAX_CHILDREN,
    name: str = "bvh",
) -> FlatBVH:
    """One-call helper: binary SAH build + collapse to wide.

    ``triangles`` is a :class:`~repro.geometry.Mesh`, a
    :class:`~repro.geometry.TriangleArrays` or a ``Triangle`` sequence;
    it is converted to arrays once, here.
    """
    arrays = as_triangle_arrays(triangles)
    return collapse_to_wide(
        build_binary_bvh(arrays, config), arrays, branching_factor, name
    )
