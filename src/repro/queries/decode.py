"""Decode traversal traces back into query answers.

The decoders read the columns of exactly what the timing model
replays — the :class:`~repro.traversal.TraceSet` — plus the
:class:`~repro.queries.compile.QueryPlan` that produced the rays.
Traces arrive in ray-population order (both trace backends preserve
input order), so the mapping is positional and independent of the
process-local ``ray_id`` counter.

Why the answers are exact (see ``docs/queries.md`` for the full
argument):

* kNN probes never hit anything (splat triangles are degenerate for
  +x rays), so no probe terminates early and the leaf-visit stream
  covers every splat AABB overlapping the probe.  The compiler's probe
  grids cover the final expansion ball, which holds >= k points, so the
  union of visited primitives is a superset of the true k nearest.
* Containment rays can only hit x-perpendicular cell faces; cells are
  disjoint with positive gaps, so the first hit belongs to the
  containing cell iff the query point lies inside that cell's box —
  which the decoder checks against the one candidate cell (a single box
  test, not a search).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..traversal import TraceSet
from .brute import neighbor_rank
from .compile import QueryPlan


def decode_results(plan: QueryPlan, scene, bvh, traces: TraceSet):
    """Dispatch to the workload's decoder."""
    if plan.workload == "knn":
        return decode_knn(plan, scene, bvh, traces)
    if plan.workload == "containment":
        return decode_containment(plan, scene, traces)
    raise ValueError(f"no decoder for workload {plan.workload!r}")


def decode_knn(
    plan: QueryPlan, scene, bvh, traces: TraceSet
) -> List[Tuple[int, ...]]:
    """Neighbor lists from the probes' leaf-visit streams: each query's
    candidates are the distinct primitives of every leaf its probes
    visited."""
    _check_count(plan, traces)
    ray_of_visit = np.repeat(
        np.arange(len(traces)), np.diff(traces.offsets)
    )
    leaf = traces.is_leaf
    counts, prims = bvh.arrays.leaf_primitives(traces.node_ids[leaf])
    query = np.repeat(
        np.asarray(plan.ray_query, dtype=np.int64)[ray_of_visit[leaf]], counts
    )
    # Distinct (query, primitive) pairs, sorted by query then primitive.
    pairs = np.unique(np.stack([query, prims], axis=1), axis=0)
    bounds = np.searchsorted(pairs[:, 0], np.arange(plan.query_count + 1))
    candidates = pairs[:, 1].tolist()
    return [
        neighbor_rank(
            scene.query.points, plan.queries[qi],
            candidates[bounds[qi]:bounds[qi + 1]], plan.k,
        )
        for qi in range(plan.query_count)
    ]


def decode_containment(
    plan: QueryPlan, scene, traces: TraceSet
) -> List[int]:
    """Containing-cell verdicts from first hits (-1 = gap/outside)."""
    _check_count(plan, traces)
    geometry = scene.query
    verdicts: List[int] = []
    for ray_index, (hit, prim) in enumerate(
        zip(traces.hit_mask.tolist(), traces.hit_prim.tolist())
    ):
        qi = int(plan.ray_query[ray_index])
        if not hit:
            verdicts.append(-1)
            continue
        cell = geometry.cell_of_primitive(prim)
        q = plan.queries[qi]
        inside = bool(
            np.all((q >= geometry.lo[cell]) & (q <= geometry.hi[cell]))
        )
        verdicts.append(cell if inside else -1)
    return verdicts


def _check_count(plan: QueryPlan, traces: TraceSet) -> None:
    if len(traces) != plan.ray_count:
        raise ValueError(
            f"trace count {len(traces)} != plan ray count {plan.ray_count}"
        )
