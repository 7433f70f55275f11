"""Multi-frame (animation) simulation: the real-time rendering regime.

The paper targets real-time ray tracing, where a GPU renders frame
after frame of a slowly changing view.  Consecutive frames revisit
mostly the same treelets, so caches are warm and prefetching interacts
with residual cache contents.  This module builds a short camera orbit,
traces each frame, and replays all frames through a *single* GPU model
(warm caches, persistent prefetcher state), reporting per-frame cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..geometry import add, sub
from ..scenes import Camera, generate_rays
from ..traversal import traverse_dfs_packet, traverse_two_stack_packet
from .pipeline import (
    DEFAULT,
    Scale,
    Technique,
    _model,
    _tree,
    get_scene,
)


@dataclass(frozen=True)
class AnimationConfig:
    """A short camera orbit around the scene."""

    frames: int = 4
    orbit_degrees_per_frame: float = 3.0

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("need at least one frame")


@dataclass
class AnimationResult:
    """Per-frame cycle counts for one technique."""

    technique: Technique
    frame_cycles: List[int]

    @property
    def total_cycles(self) -> int:
        return sum(self.frame_cycles)

    @property
    def first_frame(self) -> int:
        return self.frame_cycles[0]

    @property
    def steady_state(self) -> float:
        """Mean cycles of the warm frames (all but the first)."""
        warm = self.frame_cycles[1:]
        if not warm:
            return float(self.frame_cycles[0])
        return sum(warm) / len(warm)

    @property
    def warmup_ratio(self) -> float:
        """Cold-frame cost relative to steady state (>= ~1.0)."""
        steady = self.steady_state
        return self.first_frame / steady if steady else 1.0


def orbit_camera(base: Camera, angle_degrees: float) -> Camera:
    """Rotate the camera position about the look-at point's Y axis."""
    offset = sub(base.position, base.look_at)
    angle = math.radians(angle_degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    rotated = (
        offset[0] * cos_a + offset[2] * sin_a,
        offset[1],
        -offset[0] * sin_a + offset[2] * cos_a,
    )
    return Camera(
        position=add(base.look_at, rotated),
        look_at=base.look_at,
        fov_degrees=base.fov_degrees,
    )


def run_animation(
    scene_name: str,
    technique: Technique,
    config: Optional[AnimationConfig] = None,
    scale: Scale = DEFAULT,
) -> AnimationResult:
    """Render ``config.frames`` frames back-to-back through one GPU.

    Unlike :func:`repro.api.run` (cold caches per run), the
    GPU model persists across frames; frame 0 pays the cold-cache cost
    and later frames run against warm caches.
    """
    config = config or AnimationConfig()
    scene = get_scene(scene_name, scale)
    bvh, decomposition, layout = _tree(scene_name, technique, scale)
    model = _model(scale.gpu, technique, layout, decomposition)
    frame_cycles: List[int] = []
    for frame in range(config.frames):
        camera = orbit_camera(
            scene.camera, frame * config.orbit_degrees_per_frame
        )
        rays = generate_rays(camera, bvh, scale.raygen(seed=frame))
        if technique.traversal == "dfs":
            traces = traverse_dfs_packet(rays, bvh)
        else:
            assert decomposition is not None
            traces = traverse_two_stack_packet(
                rays, bvh, decomposition, technique.deferred_order
            )
        frame_cycles.append(model.run_frame(traces, bvh, layout))
    return AnimationResult(technique=technique, frame_cycles=frame_cycles)
