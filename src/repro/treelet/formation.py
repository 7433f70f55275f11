"""Greedy treelet formation (Section 3.1).

Treelets are connected subtrees of the BVH, formed by a greedy pass that
starts at the BVH root and keeps adding nodes breadth-first until the
maximum treelet size is reached.  The paper tracks progress with three
structures — a ``pendingTreelets`` queue of treelet roots awaiting
formation, a traversal ``stack`` of nodes still to visit within the
current treelet, and a ``completedTreelets`` queue — which map directly
onto ``pending``, ``frontier``, and the output list below.

Because nodes are appended breadth-first, upper-level nodes always come
first within a treelet; the PARTIAL prefetch heuristic (Section 4.2) and
the repacked memory layout both rely on that ordering.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bvh import NODE_SIZE_BYTES, FlatBVH
from ..bvh.soa import surface_areas

#: Treelet size the paper uses for its headline results.
DEFAULT_TREELET_BYTES = 512


@dataclass(frozen=True)
class Treelet:
    """One formed treelet.

    ``node_ids`` is in breadth-first formation order, so ``node_ids[0]`` is
    the treelet root and earlier entries are closer to the BVH root.
    """

    treelet_id: int
    root_id: int
    node_ids: Tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def size_bytes(self) -> int:
        return len(self.node_ids) * NODE_SIZE_BYTES


@dataclass
class TreeletDecomposition:
    """A complete partition of a BVH's nodes into treelets."""

    bvh: FlatBVH
    max_bytes: int
    treelets: List[Treelet]
    assignment: Dict[int, int] = field(repr=False)

    @property
    def treelet_count(self) -> int:
        return len(self.treelets)

    @property
    def max_nodes_per_treelet(self) -> int:
        return self.max_bytes // NODE_SIZE_BYTES

    def treelet_of(self, node_id: int) -> int:
        return self.assignment[node_id]

    def same_treelet(self, node_a: int, node_b: int) -> bool:
        return self.assignment[node_a] == self.assignment[node_b]

    def treelet(self, treelet_id: int) -> Treelet:
        return self.treelets[treelet_id]

    def child_same_treelet_bits(self, node_id: int) -> Tuple[bool, ...]:
        """The Figure 6 child bits: one per child, set when the child lives
        in the same treelet as ``node_id``.

        This is the only per-node metadata the traversal algorithm needs,
        and it fits in the node's two spare bytes.
        """
        mine = self.assignment[node_id]
        return tuple(
            self.assignment[child_id] == mine
            for child_id in self.bvh.child_lists()[node_id]
        )

    def occupancy(self) -> float:
        """Mean fraction of the maximum size that treelets actually fill."""
        if not self.treelets:
            return 0.0
        cap = self.max_nodes_per_treelet
        return sum(t.node_count / cap for t in self.treelets) / len(
            self.treelets
        )

    def validate(self) -> None:
        """Check decomposition invariants; raises ``ValueError``.

        Invariants: the treelets partition the node set exactly; every
        treelet respects the size cap; every treelet is connected with its
        first entry as the root (each non-root member's parent is in the
        same treelet); treelet roots' parents are in *different* treelets
        (except the BVH root).
        """
        seen: Dict[int, int] = {}
        parents = self.bvh.arrays.parent.tolist()
        for treelet in self.treelets:
            if treelet.size_bytes > self.max_bytes:
                raise ValueError(
                    f"treelet {treelet.treelet_id} exceeds max size"
                )
            if treelet.node_ids[0] != treelet.root_id:
                raise ValueError("treelet root must be the first member")
            members = set(treelet.node_ids)
            for node_id in treelet.node_ids:
                if node_id in seen:
                    raise ValueError(f"node {node_id} in two treelets")
                seen[node_id] = treelet.treelet_id
                if self.assignment.get(node_id) != treelet.treelet_id:
                    raise ValueError("assignment disagrees with membership")
                parent = parents[node_id]
                if node_id == treelet.root_id:
                    if parent != -1 and self.assignment[parent] == treelet.treelet_id:
                        raise ValueError(
                            f"treelet {treelet.treelet_id} root's parent is "
                            "inside the same treelet"
                        )
                elif parent not in members:
                    raise ValueError(
                        f"treelet {treelet.treelet_id} is not connected"
                    )
        if len(seen) != len(self.bvh):
            raise ValueError("treelets do not cover all BVH nodes")


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
    assignment: Dict[int, int] = {}
    treelets: List[Treelet] = []
    pending = deque([bvh.ROOT_ID])
    while pending:
        root_id = pending.popleft()
        treelet_id = len(treelets)
        members, leftover = _fill_one_treelet(
            children, areas, root_id, max_nodes, strategy
        )
        for node_id in members:
            assignment[node_id] = treelet_id
        pending.extend(leftover)
        treelets.append(Treelet(treelet_id, root_id, tuple(members)))
    return TreeletDecomposition(
        bvh=bvh, max_bytes=max_bytes, treelets=treelets, assignment=assignment
    )


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
