"""Ray traversal: intersection tests, DFS baseline, two-stack treelet walk."""

from .dfs import traverse_dfs, traverse_dfs_batch
from .intersect import ray_aabb_test, ray_triangle_test
from .trace import (
    NodeVisit,
    RayTrace,
    TraceSet,
    TraversalSummary,
    summarize_traces,
)
from .two_stack import (
    DEFERRED_ORDERS,
    traverse_two_stack,
    traverse_two_stack_batch,
)
from .vectorized import (
    ray_aabb_test_batch,
    ray_triangle_test_batch,
    traverse_dfs_packet,
    traverse_forest_jobs,
    traverse_two_stack_packet,
)

__all__ = [
    "DEFERRED_ORDERS",
    "NodeVisit",
    "RayTrace",
    "TraceSet",
    "TraversalSummary",
    "ray_aabb_test",
    "ray_aabb_test_batch",
    "ray_triangle_test",
    "ray_triangle_test_batch",
    "summarize_traces",
    "traverse_dfs",
    "traverse_dfs_batch",
    "traverse_dfs_packet",
    "traverse_forest_jobs",
    "traverse_two_stack",
    "traverse_two_stack_batch",
    "traverse_two_stack_packet",
]
