"""Greedy treelet formation (Section 3.1).

Treelets are connected subtrees of the BVH, formed by a greedy pass that
starts at the BVH root and keeps adding nodes breadth-first until the
maximum treelet size is reached.  The paper tracks progress with three
structures — a ``pendingTreelets`` queue of treelet roots awaiting
formation, a traversal ``stack`` of nodes still to visit within the
current treelet, and a ``completedTreelets`` queue — which map directly
onto ``pending``, ``frontier``, and the output columns below.

Because nodes are appended breadth-first, upper-level nodes always come
first within a treelet; the PARTIAL prefetch heuristic (Section 4.2) and
the repacked memory layout both rely on that ordering.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..bvh import NODE_SIZE_BYTES, FlatBVH
from ..bvh.soa import surface_areas

#: Treelet size the paper uses for its headline results.
DEFAULT_TREELET_BYTES = 512


@dataclass(eq=False)
class TreeletDecomposition:
    """A complete partition of a BVH's nodes into treelets, as columns.

    ``node_treelet[n]`` is node ``n``'s treelet id, and
    ``members[offsets[i]:offsets[i + 1]]`` is treelet ``i`` in
    breadth-first formation order: its root first, and earlier entries
    closer to the BVH root.  The columns are the whole pickle state, so
    a decomposition ships and stores as three arrays.
    """

    bvh: FlatBVH
    max_bytes: int
    node_treelet: np.ndarray  # int32[n]
    offsets: np.ndarray  # int64[treelets + 1]
    members: np.ndarray  # int32[n]

    @property
    def treelet_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def max_nodes_per_treelet(self) -> int:
        return self.max_bytes // NODE_SIZE_BYTES

    @property
    def sizes(self) -> np.ndarray:
        """Node count of each treelet."""
        return np.diff(self.offsets)

    @property
    def roots(self) -> np.ndarray:
        """Root node id of each treelet."""
        return self.members[self.offsets[:-1]]

    def treelet_of(self, node_id: int) -> int:
        return int(self.node_treelet[node_id])

    def same_treelet(self, node_a: int, node_b: int) -> bool:
        return bool(self.node_treelet[node_a] == self.node_treelet[node_b])

    def child_bits(self) -> np.ndarray:
        """The Figure 6 child bits, per CSR child slot of the tree's
        ``child_ids``: set when the child lives in its parent's treelet.

        This is the only per-node metadata the traversal algorithm
        needs, and it fits in a node's two spare bytes.
        """
        soa = self.bvh.arrays
        return self.node_treelet[soa.child_ids] == np.repeat(
            self.node_treelet, soa.child_counts
        )

    def occupancy(self) -> float:
        """Mean fraction of the maximum size that treelets actually fill."""
        if not self.treelet_count:
            return 0.0
        cap = self.max_nodes_per_treelet
        return len(self.members) / (self.treelet_count * cap)

    def validate(self) -> None:
        """Check decomposition invariants; raises ``ValueError``.

        Invariants: the treelets partition the node set exactly and
        agree with ``node_treelet``; every treelet is non-empty and
        respects the size cap; every treelet is connected with its
        first entry as the root (each non-root member's parent is in
        the same treelet); treelet roots' parents are in *different*
        treelets (except the BVH root).
        """
        n = len(self.bvh)
        members = self.members
        if len(members) != n or len(self.node_treelet) != n:
            raise ValueError("treelets do not cover all BVH nodes")
        if self.offsets[0] != 0 or self.offsets[-1] != n:
            raise ValueError("treelet offsets do not span the members")
        sizes = self.sizes
        for message, bad in (
            ("is empty", sizes < 1),
            ("exceeds max size", sizes > self.max_nodes_per_treelet),
        ):
            if bad.any():
                raise ValueError(f"treelet {int(np.argmax(bad))} {message}")
        twice = np.bincount(members, minlength=n) > 1
        if twice.any():
            raise ValueError(f"node {int(np.argmax(twice))} in two treelets")
        owner = np.repeat(np.arange(self.treelet_count), sizes)
        if (self.node_treelet[members] != owner).any():
            raise ValueError("assignment disagrees with membership")
        parents = self.bvh.arrays.parent[members]
        parent_treelet = np.where(
            parents >= 0, self.node_treelet[parents], -1
        )
        is_root = np.zeros(n, dtype=bool)
        is_root[self.offsets[:-1]] = True
        for message, bad in (
            ("root's parent is inside the same treelet",
             is_root & (parent_treelet == owner)),
            ("is not connected", ~is_root & (parent_treelet != owner)),
        ):
            if bad.any():
                raise ValueError(
                    f"treelet {int(owner[np.argmax(bad)])} {message}"
                )


#: Available fill strategies for :func:`form_treelets`.
#:
#: * ``"bfs"`` — the paper's greedy breadth-first fill (Section 3.1);
#:   upper-level nodes come first, which PARTIAL prefetching relies on.
#: * ``"dfs"`` — depth-first fill; treelets become narrow root-to-leaf
#:   slivers (a natural strawman the paper's future work alludes to).
#: * ``"sah"`` — surface-area-prioritized fill: always absorb the
#:   frontier node with the largest bounding-box area (the "statistical
#:   metrics" direction of the paper's future-work list — big boxes are
#:   hit by more rays, so they should share the root's treelet).
FORMATION_STRATEGIES = ("bfs", "dfs", "sah")


def form_treelets(
    bvh: FlatBVH,
    max_bytes: int = DEFAULT_TREELET_BYTES,
    strategy: str = "bfs",
) -> TreeletDecomposition:
    """Partition ``bvh`` into treelets of at most ``max_bytes`` each.

    Follows Section 3.1: greedy fill starting from the BVH root;
    overflow nodes become the roots of later treelets.  Every node lands
    in exactly one treelet.  ``strategy`` selects the frontier order —
    the paper uses breadth-first (``"bfs"``); the alternatives implement
    its "optimize treelet formation with statistical metrics" future
    work and are compared in the ``ablation_formation`` experiment.
    """
    if max_bytes < NODE_SIZE_BYTES:
        raise ValueError(
            f"max_bytes must fit at least one {NODE_SIZE_BYTES}-byte node"
        )
    if strategy not in FORMATION_STRATEGIES:
        raise ValueError(f"unknown formation strategy {strategy!r}")
    max_nodes = max_bytes // NODE_SIZE_BYTES
    children = bvh.child_lists()
    areas = (
        surface_areas(bvh.arrays.node_lo, bvh.arrays.node_hi).tolist()
        if strategy == "sah" else None
    )
    order: List[int] = []
    offsets = [0]
    pending = deque([bvh.ROOT_ID])
    while pending:
        members, leftover = _fill_one_treelet(
            children, areas, pending.popleft(), max_nodes, strategy
        )
        order.extend(members)
        offsets.append(len(order))
        pending.extend(leftover)
    member_ids = np.array(order, dtype=np.int32)
    bounds = np.array(offsets, dtype=np.int64)
    node_treelet = np.full(len(bvh), -1, dtype=np.int32)
    node_treelet[member_ids] = np.repeat(
        np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds)
    )
    return TreeletDecomposition(bvh, max_bytes, node_treelet, bounds,
                                member_ids)


def _fill_one_treelet(
    children: List[List[int]],
    areas: Optional[List[float]],
    root_id: int,
    max_nodes: int,
    strategy: str,
) -> Tuple[List[int], List[int]]:
    """Grow one treelet from ``root_id``; returns (members, leftover roots).

    ``children`` holds each node's child ids and ``areas`` its surface
    area (``"sah"`` only).  Leftovers are returned in a deterministic
    order so decompositions are stable across runs.
    """
    members: List[int] = []
    if strategy == "bfs":
        frontier = deque([root_id])
        while frontier and len(members) < max_nodes:
            node_id = frontier.popleft()
            members.append(node_id)
            frontier.extend(children[node_id])
        return members, list(frontier)
    if strategy == "dfs":
        stack = [root_id]
        while stack and len(members) < max_nodes:
            node_id = stack.pop()
            members.append(node_id)
            # Reversed so the first child is absorbed first.
            stack.extend(reversed(children[node_id]))
        return members, list(reversed(stack))
    # "sah": max-heap on surface area (ties broken by node id for
    # determinism); absorb the largest box on the frontier each step.
    heap: List[Tuple[float, int]] = [(-areas[root_id], root_id)]
    while heap and len(members) < max_nodes:
        _, node_id = heapq.heappop(heap)
        members.append(node_id)
        for child_id in children[node_id]:
            heapq.heappush(heap, (-areas[child_id], child_id))
    leftover = [node_id for _, node_id in sorted(heap)]
    return members, leftover
