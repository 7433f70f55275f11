"""The 16 named evaluation scenes (LumiBench analogs, Table 2).

LumiBench's artist-authored scenes are not redistributable, so each name
here maps to a procedural stand-in whose *relative* BVH size, depth and
structure track the paper's Table 2: WKND stays tiny (its tree fits in
cache, so it gains nothing from prefetching — a per-scene behaviour the
paper calls out), SHIP/BUNNY small, and PARK/CAR/ROBOT are the largest.

A global ``scale`` multiplies every triangle budget so tests can run on
miniature versions of the same shapes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..geometry import AABB, Mesh, add, merge_meshes, mul, normalize, sub
from .camera import Camera
from .queries import (
    amr_grid_two_level,
    point_cloud_clustered,
    point_cloud_uniform,
)
from .generators import (
    box,
    city,
    cone,
    plane,
    room,
    scattered,
    soup,
    sphere,
    terrain,
    tree,
)

#: Triangle budgets at scale=1.0, ordered to track Table 2's tree sizes.
SCENE_TRIANGLE_BUDGET: Dict[str, int] = {
    "WKND": 120,
    "SHIP": 320,
    "BUNNY": 2_000,
    "SPNZA": 3_200,
    "CHSNT": 3_600,
    "REF": 5_000,
    "CRNVL": 5_400,
    "BATH": 8_000,
    "PARTY": 10_000,
    "SPRNG": 11_000,
    "LANDS": 16_000,
    "FRST": 20_000,
    "PARK": 26_000,
    "FOX": 30_000,
    "CAR": 40_000,
    "ROBOT": 48_000,
}

#: Paper evaluation order (Table 2 layout).
ALL_SCENES: Tuple[str, ...] = (
    "WKND", "PARK", "CAR", "ROBOT", "SPRNG", "PARTY", "FOX", "FRST",
    "LANDS", "BUNNY", "CRNVL", "SHIP", "SPNZA", "BATH", "REF", "CHSNT",
)

#: Triangle budgets for the query-workload scenes (kept out of
#: ``SCENE_TRIANGLE_BUDGET`` so the 16 paper scenes stay a closed set).
QUERY_SCENE_BUDGET: Dict[str, int] = {
    "PTSUNI": 4_000,
    "PTSCLU": 6_000,
    "AMRTWO": 9_600,
}

#: Query scenes in registry order; NOT part of ``ALL_SCENES`` so the
#: paper sweeps and golden suites keep their 16-scene shape.
QUERY_SCENES: Tuple[str, ...] = ("PTSUNI", "PTSCLU", "AMRTWO")

#: Scene kind per name: "mesh" (renderable surfaces), "points"
#: (point-cloud splats for neighbor search), "amr" (AMR cell boxes for
#: point containment).
SCENE_KINDS: Dict[str, str] = {
    **{name: "mesh" for name in ALL_SCENES},
    "PTSUNI": "points",
    "PTSCLU": "points",
    "AMRTWO": "amr",
}


@dataclass(frozen=True)
class Scene:
    """A built scene: mesh plus a framing camera.

    Query scenes additionally carry ``kind`` ("points" / "amr") and a
    ``query`` sidecar (:class:`~repro.scenes.queries.PointCloudGeometry`
    or :class:`~repro.scenes.queries.AmrGridGeometry`) that maps
    primitives back to the data they encode.
    """

    name: str
    mesh: Mesh
    camera: Camera
    kind: str = "mesh"
    query: Optional[object] = field(default=None, compare=False)

    @property
    def triangle_count(self) -> int:
        return self.mesh.triangle_count


def _pad_with_soup(mesh: Mesh, target: int, extent: float, seed: int) -> Mesh:
    """Top a structured mesh up to ~``target`` triangles with clutter."""
    deficit = target - mesh.triangle_count
    if deficit <= 0:
        return mesh
    clutter = soup(
        deficit, extent=extent, tri_size=extent / 80.0, seed=seed, clusters=12
    )
    # Lift clutter off the ground plane so it is visible to the camera.
    clutter = clutter.translated((0.0, extent / 8.0, 0.0))
    return merge_meshes([mesh, clutter], mesh.name)


def _wknd(budget: int, seed: int) -> Mesh:
    """A minimal 'hello triangle weekend project' scene."""
    ground = plane(4, 4, 8.0)
    ball = sphere(stacks=5, slices=8, radius=1.0, center=(0.0, 1.0, 0.0))
    cube = box((2.0, 0.5, 1.0), (0.5, 0.5, 0.5))
    return merge_meshes([ground, ball, cube], "WKND")


def _ship(budget: int, seed: int) -> Mesh:
    hull = sphere(stacks=8, slices=14, radius=1.0, center=(0.0, 0.6, 0.0))
    hull = Mesh(hull.vertices * (3.0, 0.7, 1.0), hull.faces, "hull")
    deck = box((0.0, 1.0, 0.0), (2.0, 0.15, 0.6))
    mast = box((0.0, 2.2, 0.0), (0.08, 1.2, 0.08))
    sail = plane(3, 3, 1.6, y=0.0).rotated_y(0.4).translated((0.3, 2.4, 0.0))
    return merge_meshes([hull, deck, mast, sail], "SHIP")


def _blob(name: str, budget: int, seed: int, perturb: float) -> Mesh:
    """A dense organic blob (BUNNY / FOX analogs)."""
    stacks = max(4, int(math.sqrt(budget / 2.2)))
    slices = max(6, int(budget / (2 * stacks)) + 1)
    body = sphere(
        stacks=stacks, slices=slices, radius=1.5,
        center=(0.0, 1.5, 0.0), perturb=perturb, seed=seed,
    )
    ground = plane(4, 4, 8.0)
    return merge_meshes([ground, body], name)


def _spnza(budget: int, seed: int) -> Mesh:
    """Architectural atrium: floor, walls, two colonnades."""
    atrium = room(12.0, 5.0)
    columns = []
    for i in range(6):
        x = -4.5 + i * 1.8
        for z in (-3.0, 3.0):
            columns.append(box((x, 1.5, z), (0.3, 1.5, 0.3)))
    base = merge_meshes([atrium] + columns, "SPNZA")
    return _pad_with_soup(base, budget, extent=10.0, seed=seed)


def _chsnt(budget: int, seed: int) -> Mesh:
    """A single large chestnut tree on open ground."""
    ground = plane(6, 6, 14.0)
    detail = max(6, int(math.sqrt(budget / 2.5)))
    big_tree = tree(seed=seed, detail=detail).scaled(2.5)
    return merge_meshes([ground, big_tree], "CHSNT")


def _ref(budget: int, seed: int) -> Mesh:
    """A mirror-room test scene: room plus a few smooth spheres."""
    base = room(10.0, 4.0)
    n_spheres = 3
    spheres = [
        sphere(
            stacks=max(4, int(math.sqrt(budget / (n_spheres * 2.5)))),
            slices=max(6, int(math.sqrt(budget / (n_spheres * 1.5)))),
            radius=0.9,
            center=(-2.5 + 2.5 * i, 0.9, -1.0 + i),
        )
        for i in range(n_spheres)
    ]
    return merge_meshes([base] + spheres, "REF")


def _crnvl(budget: int, seed: int) -> Mesh:
    """Carnival grounds: stalls (boxes) plus dense decorations."""
    base = merge_meshes([plane(6, 6, 20.0), city(5, 18.0, seed)], "CRNVL")
    return _pad_with_soup(base, budget, extent=18.0, seed=seed)


def _bath(budget: int, seed: int) -> Mesh:
    """Bathroom: a tiled room with smooth fixtures."""
    base = room(8.0, 3.5)
    tub = box((0.0, 0.4, -2.4), (1.5, 0.4, 0.8))
    basin = sphere(
        stacks=max(6, int(math.sqrt(budget / 3.0))),
        slices=max(8, int(math.sqrt(budget / 1.8))),
        radius=0.8,
        center=(2.5, 1.0, 2.3),
    )
    base = merge_meshes([base, tub, basin], "BATH")
    return _pad_with_soup(base, budget, extent=7.0, seed=seed)


def _party(budget: int, seed: int) -> Mesh:
    """An interior crowded with small scattered objects."""
    base = room(14.0, 5.0)
    props = scattered(
        box((0.0, 0.3, 0.0), (0.3, 0.3, 0.3)), 40, extent=12.0, seed=seed
    )
    base = merge_meshes([base, props], "PARTY")
    return _pad_with_soup(base, budget, extent=12.0, seed=seed + 1)


def _sprng(budget: int, seed: int) -> Mesh:
    """Spring meadow: rolling terrain covered in grass clutter."""
    n = max(8, int(math.sqrt(budget / 6.0)))
    ground = terrain(n=n, size=24.0, amplitude=1.5, seed=seed)
    base = merge_meshes([ground], "SPRNG")
    return _pad_with_soup(base, budget, extent=22.0, seed=seed + 1)


def _lands(budget: int, seed: int) -> Mesh:
    """A large open landscape heightfield."""
    n = max(8, int(math.sqrt(budget / 2.0)))
    ground = terrain(n=n, size=40.0, amplitude=4.0, seed=seed)
    return Mesh(ground.vertices, ground.faces, "LANDS")


def _frst(budget: int, seed: int) -> Mesh:
    """A forest: terrain plus many scattered trees."""
    ground = terrain(n=16, size=30.0, amplitude=1.0, seed=seed)
    sapling = tree(seed=seed, detail=5)
    per_tree = sapling.triangle_count
    count = max(4, (budget - ground.triangle_count) // per_tree)
    trees = scattered(sapling, count, extent=26.0, seed=seed + 1)
    return merge_meshes([ground, trees], "FRST")


def _park(budget: int, seed: int) -> Mesh:
    """A park: terrain, paths, trees, and benches."""
    ground = terrain(n=20, size=32.0, amplitude=0.8, seed=seed)
    sapling = tree(seed=seed, detail=6)
    count = max(4, int(0.6 * budget) // sapling.triangle_count)
    trees = scattered(sapling, count, extent=28.0, seed=seed + 1)
    benches = scattered(
        box((0.0, 0.25, 0.0), (0.6, 0.25, 0.2)), 24, extent=24.0, seed=seed + 2
    )
    base = merge_meshes([ground, trees, benches], "PARK")
    return _pad_with_soup(base, budget, extent=28.0, seed=seed + 3)


def _car(budget: int, seed: int) -> Mesh:
    """Mechanical greeble: densely clustered small triangles (CAR analog)."""
    body = box((0.0, 1.0, 0.0), (2.2, 0.7, 1.0))
    greeble = soup(
        max(0, budget - body.triangle_count),
        extent=5.0,
        tri_size=0.05,
        seed=seed,
        clusters=40,
    ).translated((0.0, 1.0, 0.0))
    return merge_meshes([body, greeble], "CAR")


def _robot(budget: int, seed: int) -> Mesh:
    """Articulated mech: limb boxes plus very dense mechanical clutter."""
    torso = box((0.0, 3.0, 0.0), (1.0, 1.2, 0.6))
    head = sphere(stacks=6, slices=10, radius=0.5, center=(0.0, 4.6, 0.0))
    limbs = [
        box((-1.4, 2.8, 0.0), (0.25, 1.0, 0.25)),
        box((1.4, 2.8, 0.0), (0.25, 1.0, 0.25)),
        box((-0.5, 0.9, 0.0), (0.3, 0.9, 0.3)),
        box((0.5, 0.9, 0.0), (0.3, 0.9, 0.3)),
    ]
    frame = merge_meshes([torso, head] + limbs, "frame")
    greeble = soup(
        max(0, budget - frame.triangle_count),
        extent=6.0,
        tri_size=0.04,
        seed=seed,
        clusters=64,
    ).translated((0.0, 2.5, 0.0))
    return merge_meshes([frame, greeble], "ROBOT")


def _fox(budget: int, seed: int) -> Mesh:
    body = _blob("FOX", int(budget * 0.8), seed, perturb=0.25)
    ears = [
        cone(segments=8, radius=0.3, height=0.8, center=(-0.6, 2.8, 0.0)),
        cone(segments=8, radius=0.3, height=0.8, center=(0.6, 2.8, 0.0)),
    ]
    base = merge_meshes([body] + ears, "FOX")
    return _pad_with_soup(base, budget, extent=6.0, seed=seed + 1)


_BUILDERS: Dict[str, Callable[[int, int], Mesh]] = {
    "WKND": _wknd,
    "SHIP": _ship,
    "BUNNY": lambda budget, seed: _blob("BUNNY", budget, seed, perturb=0.12),
    "SPNZA": _spnza,
    "CHSNT": _chsnt,
    "REF": _ref,
    "CRNVL": _crnvl,
    "BATH": _bath,
    "PARTY": _party,
    "SPRNG": _sprng,
    "LANDS": _lands,
    "FRST": _frst,
    "PARK": _park,
    "FOX": _fox,
    "CAR": _car,
    "ROBOT": _robot,
}

#: Builders for query scenes: (budget, seed) -> (mesh, query geometry).
_QUERY_BUILDERS: Dict[str, Callable[[int, int], tuple]] = {
    "PTSUNI": point_cloud_uniform,
    "PTSCLU": point_cloud_clustered,
    "AMRTWO": amr_grid_two_level,
}

def scene_names() -> List[str]:
    """All scene names, in the paper's Table 2 order."""
    return list(ALL_SCENES)


def scene_registry() -> List[Tuple[str, str, int]]:
    """(name, kind, triangle budget at scale=1.0) for every known scene."""
    rows = [(name, SCENE_KINDS[name], SCENE_TRIANGLE_BUDGET[name])
            for name in ALL_SCENES]
    rows.extend((name, SCENE_KINDS[name], QUERY_SCENE_BUDGET[name])
                for name in QUERY_SCENES)
    return rows


def frame_camera(bounds: AABB, fov_degrees: float = 60.0) -> Camera:
    """A camera that frames ``bounds`` from an elevated three-quarter view."""
    center = bounds.centroid()
    extent = bounds.extent()
    radius = max(extent) if max(extent) > 0 else 1.0
    # Close-in three-quarter view so geometry fills most of the frame
    # (high primary hit rates, like a game camera inside the scene).
    offset_dir = normalize((1.0, 0.55, 1.2))
    position = add(center, mul(offset_dir, 0.9 * radius))
    # Nudge the target slightly below center so ground planes stay in view.
    target = sub(center, (0.0, 0.05 * radius, 0.0))
    return Camera(position=position, look_at=target, fov_degrees=fov_degrees)


def build_scene(name: str, scale: float = 1.0) -> Scene:
    """Build a named scene at the given triangle-budget scale (memoized
    by :func:`repro.core.pipeline.get_scene`)."""
    if name not in _BUILDERS and name not in _QUERY_BUILDERS:
        known = sorted(_BUILDERS) + sorted(_QUERY_BUILDERS)
        raise KeyError(f"unknown scene {name!r}; choose from {known}")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    # Stable across processes (unlike hash(), which is salted).
    seed = zlib.crc32(name.encode("utf-8"))
    if name in _QUERY_BUILDERS:
        budget = max(16, int(QUERY_SCENE_BUDGET[name] * scale))
        mesh, geometry = _QUERY_BUILDERS[name](budget, seed)
        return Scene(
            name=name,
            mesh=mesh,
            camera=frame_camera(mesh.bounds()),
            kind=SCENE_KINDS[name],
            query=geometry,
        )
    budget = max(16, int(SCENE_TRIANGLE_BUDGET[name] * scale))
    mesh = _BUILDERS[name](budget, seed)
    return Scene(name=name, mesh=mesh, camera=frame_camera(mesh.bounds()))
