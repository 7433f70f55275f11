"""Ray-coherence analysis (the paper's Section 2.4 motivation).

The paper motivates treelet prefetching with the claim that BVH access
patterns are irregular *because rays are incoherent* — especially
secondary rays, which "traverse drastically different parts of the BVH
tree".  These helpers quantify that claim on our workloads: per ray
kind, how many nodes a ray touches, how much its footprint overlaps
with its warp-mates', and how often consecutive accesses cross treelet
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..geometry import Ray
from ..traversal import RayTrace
from ..treelet import TreeletDecomposition


@dataclass(frozen=True)
class CoherenceReport:
    """Divergence metrics for one group of rays."""

    ray_count: int
    avg_nodes_per_ray: float
    avg_warp_overlap: float
    avg_treelet_transitions: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "rays": float(self.ray_count),
            "avg_nodes": self.avg_nodes_per_ray,
            "warp_overlap": self.avg_warp_overlap,
            "treelet_transitions": self.avg_treelet_transitions,
        }


def warp_overlap(traces: Sequence[RayTrace], warp_size: int = 32) -> float:
    """Mean pairwise node-set Jaccard overlap within warps.

    1.0 means every ray in a warp touches the same nodes (perfectly
    coherent, fully coalescable); near 0 means disjoint footprints.
    """
    overlaps: List[float] = []
    for start in range(0, len(traces), warp_size):
        warp = traces[start : start + warp_size]
        sets = [
            {visit.node_id for visit in trace.visits}
            for trace in warp
            if trace.visits
        ]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                union = len(sets[i] | sets[j])
                if union:
                    overlaps.append(len(sets[i] & sets[j]) / union)
    return sum(overlaps) / len(overlaps) if overlaps else 0.0


def treelet_transitions(
    trace: RayTrace, decomposition: TreeletDecomposition
) -> int:
    """Number of treelet-boundary crossings in one ray's visit order."""
    node_treelet = decomposition.node_treelet
    treelets = [node_treelet[visit.node_id] for visit in trace.visits]
    return sum(1 for a, b in zip(treelets, treelets[1:]) if a != b)


def analyze_group(
    traces: Sequence[RayTrace],
    decomposition: Optional[TreeletDecomposition] = None,
    warp_size: int = 32,
) -> CoherenceReport:
    """Coherence metrics for one group of traces (e.g. one ray kind)."""
    if not traces:
        return CoherenceReport(0, 0.0, 0.0, 0.0)
    total_nodes = sum(trace.nodes_visited for trace in traces)
    transitions = 0.0
    if decomposition is not None:
        transitions = sum(
            treelet_transitions(trace, decomposition) for trace in traces
        ) / len(traces)
    return CoherenceReport(
        ray_count=len(traces),
        avg_nodes_per_ray=total_nodes / len(traces),
        avg_warp_overlap=warp_overlap(traces, warp_size),
        avg_treelet_transitions=transitions,
    )


def analyze_by_kind(
    rays: Sequence[Ray],
    traces: Sequence[RayTrace],
    decomposition: Optional[TreeletDecomposition] = None,
    warp_size: int = 32,
) -> Dict[str, CoherenceReport]:
    """Split traces by their ray's kind and analyze each group.

    ``rays`` and ``traces`` must be parallel (matching ``ray_id``).
    """
    if len(rays) != len(traces):
        raise ValueError("rays and traces must be parallel sequences")
    groups: Dict[str, List[RayTrace]] = {}
    for ray, trace in zip(rays, traces):
        if ray.ray_id != trace.ray_id:
            raise ValueError("rays and traces are misaligned")
        groups.setdefault(ray.kind.value, []).append(trace)
    return {
        kind: analyze_group(batch, decomposition, warp_size)
        for kind, batch in groups.items()
    }
