"""Ray/AABB and ray/triangle intersection tests.

These are the RT unit's "operation units": the slab test for bounding
boxes and Möller–Trumbore for triangles.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..geometry import AABB, Hit, Ray, Triangle, cross, dot, sub

#: Watertightness epsilon for the triangle test.
_TRI_EPSILON = 1e-12


def ray_aabb_test(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab test: the ``[t_enter, t_exit]`` overlap with the ray interval.

    Returns ``None`` when the ray misses the box or the overlap falls
    outside ``[ray.t_min, ray.t_max]`` (the latter is what makes early
    ray termination prune subtrees as ``t_max`` shrinks).
    """
    if box.is_empty():
        return None
    t_near = ray.t_min
    t_far = ray.t_max
    for axis in range(3):
        inv = ray.inv_direction[axis]
        t0 = (box.lo[axis] - ray.origin[axis]) * inv
        t1 = (box.hi[axis] - ray.origin[axis]) * inv
        if t0 != t0 or t1 != t1:
            # 0 * inf: the ray runs parallel to this slab with its origin
            # exactly on a slab plane.  The NaN would make every comparison
            # below False and silently pass the axis; the correct semantics
            # are that a parallel ray inside the slab is unconstrained by
            # it, and a parallel ray outside the slab can never enter.
            if not box.lo[axis] <= ray.origin[axis] <= box.hi[axis]:
                return None
            continue
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > t_near:
            t_near = t0
        if t1 < t_far:
            t_far = t1
        if t_near > t_far:
            return None
    return (t_near, t_far)


def ray_triangle_test(ray: Ray, triangle: Triangle) -> Optional[Hit]:
    """Möller–Trumbore intersection, respecting the ray's ``[t_min, t_max]``.

    Backface hits are reported (closest-hit traversal needs them); the
    caller decides whether to cull.
    """
    edge1 = sub(triangle.v1, triangle.v0)
    edge2 = sub(triangle.v2, triangle.v0)
    pvec = cross(ray.direction, edge2)
    det = dot(edge1, pvec)
    if abs(det) < _TRI_EPSILON:
        return None  # Ray parallel to the triangle plane.
    inv_det = 1.0 / det
    tvec = sub(ray.origin, triangle.v0)
    u = dot(tvec, pvec) * inv_det
    if u < 0.0 or u > 1.0:
        return None
    qvec = cross(tvec, edge1)
    v = dot(ray.direction, qvec) * inv_det
    if v < 0.0 or u + v > 1.0:
        return None
    t = dot(edge2, qvec) * inv_det
    if t < ray.t_min or t > ray.t_max:
        return None
    return Hit(
        t=t,
        primitive_id=triangle.primitive_id,
        point=ray.at(t),
        normal=triangle.normal(),
    )
