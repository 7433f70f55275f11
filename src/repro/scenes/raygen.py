"""Ray population generation: primary plus incoherent secondary rays.

The paper renders at 1 sample per pixel and stresses that *secondary*
rays (shadow / diffuse-bounce) are what make BVH accesses divergent.  We
reproduce that population: a camera pass generates primary rays, a
packet DFS pass over each bounce frontier finds their hit points, and
from each hit we spawn a shadow ray toward the light and a cosine-ish
random bounce ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..bvh import FlatBVH
from ..geometry import Ray, RayKind, Vec3, add, cross, dot, mul, normalize
from ..traversal import traverse_dfs_packet
from .camera import Camera


@dataclass(frozen=True)
class RayGenConfig:
    """Knobs for ray population generation.

    ``bounces`` controls path depth: 1 spawns one diffuse bounce per
    primary hit (the paper's 1 SPP real-time setting); higher values
    keep bouncing, producing the progressively more incoherent ray
    populations of deeper global illumination.
    """

    width: int = 32
    height: int = 32
    secondary: bool = True
    shadow_rays: bool = True
    bounces: int = 1
    light_position: Vec3 = (8.0, 12.0, 6.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.bounces < 0:
            raise ValueError("bounces must be non-negative")


def _hemisphere_direction(normal: Vec3, rng: np.random.Generator) -> Vec3:
    """A random direction in the hemisphere around ``normal``."""
    # Build an orthonormal basis around the normal.
    n = normalize(normal)
    helper = (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0)
    tangent = normalize(cross(n, helper))
    bitangent = cross(n, tangent)
    u1, u2 = rng.random(), rng.random()
    r = math.sqrt(u1)
    theta = 2.0 * math.pi * u2
    x = r * math.cos(theta)
    y = r * math.sin(theta)
    z = math.sqrt(max(0.0, 1.0 - u1))
    direction = add(
        add(mul(tangent, x), mul(bitangent, y)), mul(n, z)
    )
    return direction


def generate_primary_rays(camera: Camera, config: RayGenConfig) -> List[Ray]:
    """One primary ray per pixel (pixel centers, deterministic)."""
    return [
        camera.ray_through_pixel(px, py, config.width, config.height)
        for py in range(config.height)
        for px in range(config.width)
    ]


def generate_rays(
    camera: Camera, bvh: Optional[FlatBVH], config: RayGenConfig
) -> List[Ray]:
    """The full ray population for one frame at 1 SPP.

    Primary rays always; when ``config.secondary`` and a BVH is supplied,
    each primary hit spawns a diffuse bounce ray and (optionally) a shadow
    ray toward the light.  Secondary origins are offset along the surface
    normal to avoid self-intersection.
    """
    primaries = generate_primary_rays(camera, config)
    if not config.secondary or bvh is None or config.bounces == 0:
        return primaries
    rng = np.random.default_rng(config.seed)
    secondaries: List[Ray] = []
    frontier = primaries
    for _bounce in range(config.bounces):
        next_frontier: List[Ray] = []
        # The bounce origins come from the traces of clones (see
        # Ray.clone), so the population's bits do too.
        traces = traverse_dfs_packet([ray.clone() for ray in frontier], bvh)
        for ray, hit, point, normal in zip(
            frontier,
            traces.hit_mask.tolist(),
            traces.hit_point.tolist(),
            traces.hit_normal.tolist(),
        ):
            if not hit:
                continue
            # Face the normal toward the incoming ray.
            normal = tuple(normal)
            if dot(normal, ray.direction) > 0.0:
                normal = mul(normal, -1.0)
            origin = add(tuple(point), mul(normal, 1e-3))
            bounce_dir = _hemisphere_direction(normal, rng)
            bounce = Ray(
                origin=origin, direction=bounce_dir, kind=RayKind.SECONDARY
            )
            next_frontier.append(bounce)
            secondaries.append(bounce)
            if config.shadow_rays:
                to_light = (
                    config.light_position[0] - origin[0],
                    config.light_position[1] - origin[1],
                    config.light_position[2] - origin[2],
                )
                secondaries.append(
                    Ray(
                        origin=origin,
                        direction=to_light,
                        kind=RayKind.SHADOW,
                    )
                )
        frontier = next_frontier
        if not frontier:
            break
    return primaries + secondaries


def population_digest(rays: List[Ray]) -> str:
    """SHA-256 over a canonical binary encoding of a ray population.

    Two populations digest identically iff every ray matches on
    position in the list, origin, direction, traversal interval, and
    kind — exactly the fields that determine traversal behavior.
    ``ray_id`` is deliberately excluded: it comes from a process-global
    counter, so it differs across processes even for byte-identical
    populations.  This is what the raygen determinism regression test
    compares across independent processes.
    """
    import hashlib
    import struct

    digest = hashlib.sha256()
    for index, ray in enumerate(rays):
        digest.update(struct.pack(
            "<i3d3ddd",
            index,
            *ray.origin,
            *ray.direction,
            ray.t_min,
            ray.t_max if math.isfinite(ray.t_max) else -1.0,
        ))
        digest.update(ray.kind.name.encode())
    return digest.hexdigest()
