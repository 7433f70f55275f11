"""Triangle mesh container with simple transform and merge utilities.

The procedural scene generators emit :class:`Mesh` objects built from
numpy vertex/index arrays; the BVH builder consumes their
:meth:`Mesh.triangle_arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .aabb import AABB, union_all
from .triangle import Triangle, TriangleArrays
from .vec import Vec3


@dataclass
class Mesh:
    """A triangle soup stored as numpy arrays.

    Attributes:
        vertices: float array of shape (V, 3).
        faces: int array of shape (F, 3) indexing into ``vertices``.
        name: label used in scene statistics.
    """

    vertices: np.ndarray
    faces: np.ndarray
    name: str = "mesh"

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (V, 3)")
        if self.faces.size and (self.faces.ndim != 2 or self.faces.shape[1] != 3):
            raise ValueError("faces must have shape (F, 3)")
        if self.faces.size and self.faces.max(initial=-1) >= len(self.vertices):
            raise ValueError("face index out of range")
        if self.faces.size and self.faces.min(initial=0) < 0:
            raise ValueError("face index out of range")

    @property
    def triangle_count(self) -> int:
        return int(len(self.faces))

    def triangles(self, id_offset: int = 0) -> List[Triangle]:
        """Materialize :class:`Triangle` objects with sequential ids, with
        plain-``float`` components as :mod:`repro.geometry.vec` promises."""
        return self.triangle_arrays(id_offset).triangles()

    def triangle_arrays(self, id_offset: int = 0) -> TriangleArrays:
        """The faces as :class:`TriangleArrays` with sequential ids: the
        values :meth:`triangles` holds, without the objects."""
        corners = self.vertices[self.faces.reshape(-1, 3)]  # (F, 3, 3)
        return TriangleArrays(
            corners[:, 0].copy(), corners[:, 1].copy(), corners[:, 2].copy(),
            np.arange(id_offset, id_offset + len(corners), dtype=np.int64),
        )

    def bounds(self) -> AABB:
        if not len(self.vertices):
            return AABB.empty()
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return AABB(tuple(lo.tolist()), tuple(hi.tolist()))

    def translated(self, offset: Vec3) -> "Mesh":
        return Mesh(self.vertices + np.asarray(offset), self.faces.copy(), self.name)

    def scaled(self, factor: float) -> "Mesh":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return Mesh(self.vertices * factor, self.faces.copy(), self.name)

    def rotated_y(self, angle_rad: float) -> "Mesh":
        """Rotate about the +Y axis (the common 'spin an object' transform)."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        return Mesh(self.vertices @ rot.T, self.faces.copy(), self.name)


def merge_meshes(meshes: Sequence[Mesh], name: str = "merged") -> Mesh:
    """Concatenate meshes into one, remapping face indices."""
    if not meshes:
        return Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), name)
    vertex_blocks = []
    face_blocks = []
    offset = 0
    for mesh in meshes:
        vertex_blocks.append(mesh.vertices)
        if mesh.faces.size:
            face_blocks.append(mesh.faces + offset)
        offset += len(mesh.vertices)
    faces = (
        np.concatenate(face_blocks)
        if face_blocks
        else np.zeros((0, 3), dtype=np.int64)
    )
    return Mesh(np.concatenate(vertex_blocks), faces, name)


def mesh_bounds(meshes: Sequence[Mesh]) -> AABB:
    return union_all(mesh.bounds() for mesh in meshes)
