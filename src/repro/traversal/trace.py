"""Per-ray traversal traces.

The functional traversal algorithms (DFS and two-stack) emit, for every
ray, the ordered sequence of BVH nodes it fetched.  The timing model
replays those sequences through the RT unit and memory hierarchy — the
same split Vulkan-Sim uses ("the treelet based traversal algorithm is
modeled in functional simulation to provide the RT unit in the timing
model with the sequence of memory addresses", Section 5).

A batch of traces travels as one :class:`TraceSet`: flat columns in
compressed-sparse-row form, which the timing model, the summaries and
the query decoders read directly, and which the artifact cache stores
as plain arrays.  The per-ray :class:`RayTrace` objects are views
built on request (and the scalar reference traversals' output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry import Hit


@dataclass(frozen=True)
class NodeVisit:
    """One node fetch performed by a ray.

    ``primitive_count`` is nonzero only for leaf visits and drives the
    extra primitive-data demand loads in the timing model.
    """

    node_id: int
    is_leaf: bool
    primitive_count: int = 0


@dataclass
class RayTrace:
    """Everything a single ray did during traversal."""

    ray_id: int
    visits: List[NodeVisit] = field(default_factory=list)
    hit: Optional[Hit] = None
    box_tests: int = 0
    primitive_tests: int = 0

    @property
    def nodes_visited(self) -> int:
        return len(self.visits)

    @property
    def leaf_visits(self) -> int:
        return sum(1 for visit in self.visits if visit.is_leaf)


@dataclass
class TraversalSummary:
    """Aggregate Table 3-style statistics over a batch of ray traces."""

    ray_count: int
    total_nodes: int
    max_nodes: int
    total_box_tests: int
    total_primitive_tests: int
    hit_count: int

    @property
    def avg_nodes_per_ray(self) -> float:
        return self.total_nodes / self.ray_count if self.ray_count else 0.0


#: Column name -> dtype, in storage order.  Per ray: ``ray_ids``,
#: ``box_tests``, ``primitive_tests`` and the ``hit_*`` fields (zero
#: where ``hit_mask`` is False); ``offsets`` has one more entry (ray
#: ``i``'s visits are ``offsets[i]:offsets[i + 1]``); per visit:
#: ``node_ids``, ``is_leaf``, ``primitive_counts``.
TRACE_COLUMNS: Dict[str, type] = {
    "ray_ids": np.int64,
    "offsets": np.int64,
    "box_tests": np.int32,
    "primitive_tests": np.int32,
    "node_ids": np.int32,
    "is_leaf": np.bool_,
    "primitive_counts": np.int32,
    "hit_mask": np.bool_,
    "hit_t": np.float64,
    "hit_prim": np.int32,
    "hit_point": np.float64,  # [n, 3]
    "hit_normal": np.float64,  # [n, 3]
}


class TraceSet(Sequence):
    """A batch of ray traces as one CSR block: one flat column per field
    (:data:`TRACE_COLUMNS`) plus per-ray visit offsets.

    It is a ``Sequence[RayTrace]``: ``traces[i]`` builds ray ``i``'s
    :class:`RayTrace` view, and ``traces[a:b]`` is the TraceSet of rays
    ``a`` to ``b``.  Hit fields equal the scalar reference's ``Hit``
    fields bit for bit.  Its state, and so its pickle, is the columns.
    """

    def __init__(self, **columns) -> None:
        for name, dtype in TRACE_COLUMNS.items():
            setattr(self, name, np.asarray(columns[name], dtype=dtype))

    @classmethod
    def from_traces(cls, traces: Sequence[RayTrace]) -> "TraceSet":
        """The columns of a list of :class:`RayTrace` (e.g. the scalar
        reference traversals' output)."""
        n = len(traces)
        visits = [visit for trace in traces for visit in trace.visits]
        hits = [trace.hit for trace in traces]
        none = Hit(0.0, 0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        shown = [none if hit is None else hit for hit in hits]
        return cls(
            ray_ids=[trace.ray_id for trace in traces],
            offsets=np.cumsum([0] + [len(trace.visits) for trace in traces]),
            box_tests=[trace.box_tests for trace in traces],
            primitive_tests=[trace.primitive_tests for trace in traces],
            node_ids=[visit.node_id for visit in visits],
            is_leaf=[visit.is_leaf for visit in visits],
            primitive_counts=[visit.primitive_count for visit in visits],
            hit_mask=[hit is not None for hit in hits],
            hit_t=[hit.t for hit in shown],
            hit_prim=[hit.primitive_id for hit in shown],
            hit_point=np.reshape([hit.point for hit in shown], (n, 3)),
            hit_normal=np.reshape([hit.normal for hit in shown], (n, 3)),
        )

    def columns(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TRACE_COLUMNS}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceSet) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in TRACE_COLUMNS
        )

    def __len__(self) -> int:
        return len(self.ray_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a TraceSet slice takes every ray")
            stop = max(start, stop)
            first, last = self.offsets[start], self.offsets[stop]
            columns = {
                name: getattr(self, name)[start:stop]
                for name in TRACE_COLUMNS
            }
            columns["offsets"] = self.offsets[start:stop + 1] - first
            for name in ("node_ids", "is_leaf", "primitive_counts"):
                columns[name] = getattr(self, name)[first:last]
            return TraceSet(**columns)
        i = range(len(self))[index]
        start, end = self.offsets[i:i + 2].tolist()
        hit = None
        if self.hit_mask[i]:
            hit = Hit(
                t=self.hit_t[i].item(),
                primitive_id=self.hit_prim[i].item(),
                point=tuple(self.hit_point[i].tolist()),
                normal=tuple(self.hit_normal[i].tolist()),
            )
        return RayTrace(
            ray_id=self.ray_ids[i].item(),
            visits=[
                NodeVisit(node_id, is_leaf, count)
                for node_id, is_leaf, count in zip(
                    self.node_ids[start:end].tolist(),
                    self.is_leaf[start:end].tolist(),
                    self.primitive_counts[start:end].tolist(),
                )
            ],
            hit=hit,
            box_tests=self.box_tests[i].item(),
            primitive_tests=self.primitive_tests[i].item(),
        )


def summarize_traces(traces: TraceSet) -> TraversalSummary:
    """Fold a :class:`TraceSet`'s columns into a :class:`TraversalSummary`."""
    visits = np.diff(traces.offsets)
    return TraversalSummary(
        ray_count=len(traces),
        total_nodes=int(traces.offsets[-1]),
        max_nodes=int(visits.max()) if len(visits) else 0,
        total_box_tests=int(traces.box_tests.sum()),
        total_primitive_tests=int(traces.primitive_tests.sum()),
        hit_count=int(traces.hit_mask.sum()),
    )
