"""Triangle primitives.

Triangles are the only primitive type, matching the paper's evaluation
(Embree-built BVHs over triangle meshes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .aabb import AABB
from .vec import Vec3, cross, length, normalize, sub, vmax, vmin


@dataclass(frozen=True)
class Triangle:
    """An immutable triangle with a stable primitive id."""

    v0: Vec3
    v1: Vec3
    v2: Vec3
    primitive_id: int = 0

    def bounds(self) -> AABB:
        lo = vmin(self.v0, vmin(self.v1, self.v2))
        hi = vmax(self.v0, vmax(self.v1, self.v2))
        return AABB(lo, hi)

    def centroid(self) -> Vec3:
        third = 1.0 / 3.0
        return (
            (self.v0[0] + self.v1[0] + self.v2[0]) * third,
            (self.v0[1] + self.v1[1] + self.v2[1]) * third,
            (self.v0[2] + self.v1[2] + self.v2[2]) * third,
        )

    def normal(self) -> Vec3:
        """Unit geometric normal (right-hand rule over v0, v1, v2)."""
        n = cross(sub(self.v1, self.v0), sub(self.v2, self.v0))
        return normalize(n)

    def area(self) -> float:
        n = cross(sub(self.v1, self.v0), sub(self.v2, self.v0))
        return 0.5 * length(n)

    def is_degenerate(self, eps: float = 1e-12) -> bool:
        """True when the triangle has (near-)zero area."""
        n = cross(sub(self.v1, self.v0), sub(self.v2, self.v0))
        return length(n) < eps


@dataclass(frozen=True)
class TriangleArrays:
    """Structure-of-arrays form of a triangle list.

    ``v0``/``v1``/``v2`` are the raw ``[n, 3]`` float64 vertices and
    ``primitive_ids`` the ``[n]`` ids, indexed by *position in the
    source sequence* (the same index scalar traversal uses for
    ``triangles[prim_id]``).  ``edge1``/``edge2`` are derived with the
    exact subtraction Möller–Trumbore performs, so batched tests over
    these arrays reproduce the scalar results bit-for-bit; the raw
    vertices are kept because ``v0 + edge1`` need not round-trip to
    ``v1``.
    """

    v0: "object"  # np.ndarray [n, 3]
    v1: "object"  # np.ndarray [n, 3]
    v2: "object"  # np.ndarray [n, 3]
    primitive_ids: "object"  # np.ndarray [n] int64
    edge1: "object" = field(init=False, repr=False, compare=False)
    edge2: "object" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge1", self.v1 - self.v0)
        object.__setattr__(self, "edge2", self.v2 - self.v0)

    def __len__(self) -> int:
        return self.v0.shape[0]

    def triangles(self) -> List[Triangle]:
        """The :class:`Triangle` objects, with plain-float components."""
        return [
            Triangle(tuple(a), tuple(b), tuple(c), prim)
            for a, b, c, prim in zip(
                self.v0.tolist(), self.v1.tolist(), self.v2.tolist(),
                self.primitive_ids.tolist(),
            )
        ]


def triangles_to_arrays(triangles) -> TriangleArrays:
    """Export a triangle sequence as :class:`TriangleArrays`."""
    import numpy as np

    n = len(triangles)
    vertices = np.array(
        [(tri.v0, tri.v1, tri.v2) for tri in triangles], dtype=np.float64
    ).reshape(n, 3, 3)
    v0, v1, v2 = (vertices[:, k].copy() for k in range(3))
    ids = np.fromiter((tri.primitive_id for tri in triangles), np.int64, n)
    return TriangleArrays(v0, v1, v2, ids)
