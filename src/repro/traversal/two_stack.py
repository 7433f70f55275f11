"""Treelet-based two-stack traversal (Algorithm 1 of the paper).

The traversal keeps two structures: ``current_stack`` holds unvisited
nodes of the treelet being traversed, and a *deferred* structure holds
root nodes of treelets the ray will visit afterwards.  Intersected
children are routed by the per-child "same treelet" bits (Figure 6):
same-treelet children go on the current stack, foreign children are
deferred.  When the current stack drains, one deferred entry seeds the
next treelet.

Relative to depth-first traversal this clusters each ray's accesses
inside one treelet at a time — the property the prefetcher exploits — at
the cost of delaying the discovery of the closest hit (early ray
termination fires later), which is why treelet traversal alone is a
small slowdown in the paper (Section 6.1).

**Deferred ordering.**  The paper's Algorithm 1 transfers
``otherTreeletStack.front()`` — ambiguous between stack and queue
semantics.  On our (shallower) procedural trees a plain LIFO/FIFO defers
near geometry long enough to inflate node counts well beyond the paper's
±few percent, so the default policy picks the *nearest* deferred treelet
root (smallest entry distance), which restores the paper's small-overhead
shape; ``lifo`` and ``fifo`` remain available for the ablation bench.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Sequence, Tuple

from ..bvh import FlatBVH
from ..geometry import Ray, Triangle
from ..treelet import TreeletDecomposition
from .intersect import ray_aabb_test, ray_triangle_test
from .trace import NodeVisit, RayTrace

DEFERRED_ORDERS = ("nearest", "lifo", "fifo")


class _DeferredTreelets:
    """The other-treelet structure under one of three pop policies."""

    def __init__(self, order: str) -> None:
        if order not in DEFERRED_ORDERS:
            raise ValueError(f"unknown deferred order {order!r}")
        self.order = order
        self._heap: List[Tuple[float, int]] = []
        self._deque: deque = deque()

    def __bool__(self) -> bool:
        return bool(self._heap) if self.order == "nearest" else bool(self._deque)

    def push(self, t_enter: float, node_id: int) -> None:
        if self.order == "nearest":
            heapq.heappush(self._heap, (t_enter, node_id))
        else:
            self._deque.append((t_enter, node_id))

    def pop(self) -> Tuple[int, float]:
        """Next treelet root as ``(node_id, t_enter)``."""
        if self.order == "nearest":
            t_enter, node_id = heapq.heappop(self._heap)
        elif self.order == "lifo":
            t_enter, node_id = self._deque.pop()
        else:  # fifo
            t_enter, node_id = self._deque.popleft()
        return node_id, t_enter


def traverse_two_stack(
    ray: Ray,
    bvh: FlatBVH,
    decomposition: TreeletDecomposition,
    deferred_order: str = "nearest",
) -> RayTrace:
    """Trace ``ray`` with Algorithm 1; returns the full trace.

    Like the DFS baseline, stack entries whose entry distance exceeds the
    current closest hit are pruned without a node fetch, and children are
    pushed nearest-first within the current treelet.
    """
    trace = RayTrace(ray_id=ray.ray_id)
    triangles: Sequence[Triangle] = bvh.triangles
    node_treelet = decomposition.node_treelet
    current_stack: List[Tuple[int, float]] = [(bvh.ROOT_ID, ray.t_min)]
    deferred = _DeferredTreelets(deferred_order)
    while current_stack or deferred:
        if not current_stack:
            current_stack.append(deferred.pop())
        node_id, t_enter = current_stack.pop()
        if t_enter >= ray.t_max:
            continue
        node = bvh.node(node_id)
        trace.visits.append(
            NodeVisit(
                node_id=node_id,
                is_leaf=node.is_leaf,
                primitive_count=len(node.primitive_ids),
            )
        )
        if node.is_leaf:
            for prim_id in node.primitive_ids:
                trace.primitive_tests += 1
                hit = ray_triangle_test(ray, triangles[prim_id])
                if hit is not None and hit.closer_than(trace.hit):
                    trace.hit = hit
                    ray.t_max = hit.t
            continue
        treelet_id = node_treelet[node_id]
        near_hits: List[Tuple[float, int]] = []
        for child_id in node.child_ids:
            trace.box_tests += 1
            overlap = ray_aabb_test(ray, bvh.node(child_id).bounds)
            if overlap is None:
                continue
            if node_treelet[child_id] == treelet_id:
                near_hits.append((overlap[0], child_id))
            else:
                deferred.push(overlap[0], child_id)
        # Push far-to-near so the nearest same-treelet child pops first.
        near_hits.sort(key=lambda pair: pair[0], reverse=True)
        for t_child, child_id in near_hits:
            current_stack.append((child_id, t_child))
    return trace


def traverse_two_stack_batch(
    rays: Sequence[Ray],
    bvh: FlatBVH,
    decomposition: TreeletDecomposition,
    deferred_order: str = "nearest",
) -> List[RayTrace]:
    """Traverse every ray independently (the rays are mutated)."""
    return [
        traverse_two_stack(ray, bvh, decomposition, deferred_order)
        for ray in rays
    ]
