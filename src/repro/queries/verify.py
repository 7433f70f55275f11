"""End-to-end verification: traversal-decoded answers vs brute force.

This is the correctness gate for the whole query stack: compile the
plan, run real traversal through the pipeline, decode, and demand
*exact* equality with the
exhaustive reference.  The CLI (``repro queries``) and the test suite
both funnel through :func:`verify_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .brute import brute_containment, brute_knn
from .decode import decode_results


@dataclass
class QueryVerification:
    """Outcome of one scene/workload equivalence check."""

    scene: str
    workload: str
    scale: str
    queries: int
    rays: int
    mismatches: int
    examples: List[Tuple[int, object, object]] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.mismatches == 0


def verify_workload(
    scene_name: str,
    scale,
    workload: str,
    technique=None,
    max_examples: int = 5,
) -> QueryVerification:
    """Check decoded traversal answers against brute force, exactly.

    ``technique`` defaults to the paper baseline (DFS traversal); any
    :class:`~repro.core.pipeline.Technique` works because traversal
    kind changes visit *order*, never the visited set, for these
    non-terminating query rays.
    """
    from ..core import pipeline

    if technique is None:
        technique = pipeline.BASELINE
    plan = pipeline.get_query_plan(scene_name, scale, workload)
    scene = pipeline.get_scene(scene_name, scale)
    bvh = pipeline.get_bvh(scene_name, scale)
    traces = pipeline.get_traces(
        scene_name,
        scale,
        technique.traversal,
        technique.treelet_bytes,
        technique.deferred_order,
        technique.formation,
        workload=workload,
    )
    decoded = decode_results(plan, scene, bvh, traces)
    if workload == "knn":
        expected = brute_knn(scene.query.points, plan.queries, plan.k)
    else:
        expected = brute_containment(scene.query, plan.queries)
    examples = []
    mismatches = 0
    for qi, (got, want) in enumerate(zip(decoded, expected)):
        if got != want:
            mismatches += 1
            if len(examples) < max_examples:
                examples.append((qi, got, want))
    return QueryVerification(
        scene=scene_name,
        workload=workload,
        scale=scale.name,
        queries=plan.query_count,
        rays=plan.ray_count,
        mismatches=mismatches,
        examples=examples,
    )
